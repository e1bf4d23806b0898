"""Fixed 48-bit frame codec for the wearable's radio path.

Wire layout, most significant bit first:

    bits 0..7    sync preamble, constant 0xA5
    bits 8..9    mode tag (00 idle, 01 acc, 10 ppt, 11 sync)
    bits 10..19  x axis, 10-bit unsigned
    bits 20..29  y axis, 10-bit unsigned
    bits 30..39  z axis, 10-bit unsigned
    bits 40..47  CRC-8 over bits 8..39 (poly 0x07, init 0x00, MSB first)

The codec works on one frame or on a block of frames. A frame block is an
(n, 4) integer array whose rows are (mode, x, y, z); its wire form is an
(n, 48) uint8 array of 0/1 bits, one frame per row; each of its columns
passes `sensor.check_int_array` within its wire range. One frame is the
same computation on plain ints: `serialize` of a CodecFrame gives 48 bytes
of 0/1 values, the `.tobytes()` of its block row, and `deserialize` of one
48-bit sequence of any kind gives a CodecFrame or raises. The CRC detects
every single-bit corruption of the protected region.

Encoding is a few field-table lookups. With zero init and no final xor the
CRC is linear over GF(2): the CRC of an xor of words is the xor of their
CRCs. The fields fill disjoint bits of the protected word, so a frame's CRC
is the xor of the CRCs of its four fields each taken alone, and one table
per field, built at import from the CRCs of the field's bits each set
alone, holds those for every value. A frame's wire
bits are likewise the bits of its head (sync, then mode tag), of its three
axis values and of its CRC byte, each read from a table. One frame joins
them as bytes, a block gathers them as arrays, and `deserialize` checks a
frame's CRC against the one the same tables give for its decoded fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .sensor import COUNT_MAX, check_counts, check_int, check_int_array, check_rows

SYNC_PATTERN = 0xA5
SYNC_BITS = 8
MODE_BITS = 2
AXIS_BITS = 10
PAYLOAD_BITS = 3 * AXIS_BITS
CRC_BITS = 8
FRAME_BITS = SYNC_BITS + MODE_BITS + PAYLOAD_BITS + CRC_BITS
CRC8_POLY = 0x07

# the name of each frame-block column, the shift placing it in the 32-bit
# protected word, and the largest value it may hold
_FIELD_NAMES = ("mode", "x", "y", "z")
_FIELD_SHIFTS = np.array([3 * AXIS_BITS, 2 * AXIS_BITS, AXIS_BITS, 0], dtype=np.int64)
_FIELD_MAX = np.array([(1 << MODE_BITS) - 1, COUNT_MAX, COUNT_MAX, COUNT_MAX], dtype=np.int64)
_BIT_SHIFTS = np.arange(FRAME_BITS - 1, -1, -1)  # wire bit i is word bit 47 - i


class WatchMode(IntEnum):
    """Watch operating mode; the value is the 2-bit wire tag."""

    IDLE = 0
    ACC = 1
    PPT = 2
    SYNC = 3


def check_mode(mode) -> WatchMode:
    """The WatchMode of a mode tag: a WatchMode member, or a plain int wire
    tag in 0..3 under the integer rule, so that no bool, float or NumPy
    integer is read as a mode."""
    if type(mode) is WatchMode:
        return mode
    check_int("mode", mode, 0, (1 << MODE_BITS) - 1)
    return WatchMode(mode)


class DecodeError(ValueError):
    """A bit sequence cannot be decoded into a frame."""


class SyncMismatchError(DecodeError):
    """The sync preamble does not match."""


class CrcMismatchError(DecodeError):
    """Integrity check failed; the transmission was corrupted."""


@dataclass(frozen=True, slots=True)
class CodecFrame:
    """One over-the-air packet: mode tag plus a 3-axis payload."""

    mode: WatchMode
    x: int
    y: int
    z: int

    def __post_init__(self):
        if type(self.mode) is not WatchMode:
            object.__setattr__(self, "mode", check_mode(self.mode))
        check_counts(self.x, self.y, self.z)


# the slot setters of CodecFrame, which build a view without a second check
_SET_MODE, _SET_X, _SET_Y, _SET_Z = (CodecFrame.__dict__[field].__set__ for field in _FIELD_NAMES)
_ACC = WatchMode.ACC  # bound once, so that no view looks the enum member up


def _acc_frame_view(x: int, y: int, z: int) -> CodecFrame:
    """The ACC CodecFrame of one row of checked count columns, not checked
    again."""
    frame = object.__new__(CodecFrame)
    _SET_MODE(frame, _ACC)
    _SET_X(frame, x)
    _SET_Y(frame, y)
    _SET_Z(frame, z)
    return frame


def _bit_table(values: np.ndarray, width: int) -> np.ndarray:
    """The width-bit binary digits of each value below 2**16, most
    significant first, one uint8 row per value."""
    big_endian = values[:, None].astype(">u2").view(np.uint8)
    return np.ascontiguousarray(np.unpackbits(big_endian, axis=1)[:, 16 - width :])


def _field_crcs() -> list[list[int]]:
    """The CRC of every value of each frame-block column alone at its shift
    in the protected word. Protected bit k alone has the CRC x**(8 + k) mod
    the polynomial: bit 0's is CRC8_POLY, and each higher bit's is the one
    below it shifted through one division step. A column's table doubles
    once per bit of the column, lowest first, the new half being the old
    one xored with that bit's CRC."""
    bit_crcs = [CRC8_POLY]
    while len(bit_crcs) < MODE_BITS + PAYLOAD_BITS:
        crc = bit_crcs[-1]
        bit_crcs.append(((crc << 1) ^ CRC8_POLY) & 0xFF if crc & 0x80 else crc << 1)
    tables = []
    for shift, top in zip(_FIELD_SHIFTS.tolist(), _FIELD_MAX.tolist()):
        table = [0]
        for bit_crc in bit_crcs[shift : shift + top.bit_length()]:
            table += [entry ^ bit_crc for entry in table]
        tables.append(table)
    return tables


# The field tables (see the module docstring). _MODE_CRC[v] (and the axes
# alike) is the CRC of value v alone in its column, and _FIELD_CRC holds the
# four as uint8 arrays. The wire bits are the 10-bit head of each mode, the
# 10 bits of each axis value and the 8 of each CRC byte. Blocks read arrays,
# one frame the same rows as bytes.
_MODE_CRC, _X_CRC, _Y_CRC, _Z_CRC = _field_crcs()
_FIELD_CRC = tuple(
    np.array(table, dtype=np.uint8) for table in (_MODE_CRC, _X_CRC, _Y_CRC, _Z_CRC)
)
_HEAD_BITS = _bit_table(
    SYNC_PATTERN << MODE_BITS | np.arange(1 << MODE_BITS), SYNC_BITS + MODE_BITS
)
_AXIS_BITS = _bit_table(np.arange(COUNT_MAX + 1), AXIS_BITS)
_BYTE_BITS = _bit_table(np.arange(1 << CRC_BITS), CRC_BITS)
_HEAD_WIRE, _AXIS_WIRE, _BYTE_WIRE = (
    tuple(map(bytes, table)) for table in (_HEAD_BITS, _AXIS_BITS, _BYTE_BITS)
)


def _block_crc(fields: np.ndarray) -> np.ndarray:
    """CRC of each in-range (mode, x, y, z) row of a frame block, or of
    one such row."""
    mode, x, y, z = _FIELD_CRC
    return mode[fields[..., 0]] ^ x[fields[..., 1]] ^ y[fields[..., 2]] ^ z[fields[..., 3]]


def serialize(frames):
    """Encode frames into their 48-bit wire sequences.

    A CodecFrame gives its 48 bits as bytes of 0/1 values, the five table
    pieces of its head, axes and CRC joined once. An (n, 4) integer frame
    block of (mode, x, y, z) rows gives an (n, 48) uint8 array, one frame per
    row, whose row.tobytes() is that frame's bytes; each column passes
    sensor.check_int_array within its wire range.
    """
    if isinstance(frames, CodecFrame):
        mode, x, y, z = frames.mode, frames.x, frames.y, frames.z
        crc = _MODE_CRC[mode] ^ _X_CRC[x] ^ _Y_CRC[y] ^ _Z_CRC[z]
        pieces = _HEAD_WIRE[mode], _AXIS_WIRE[x], _AXIS_WIRE[y], _AXIS_WIRE[z], _BYTE_WIRE[crc]
        return b"".join(pieces)
    fields = np.asarray(frames)
    if fields.ndim != 2 or fields.shape[1] != 4:
        raise ValueError(f"frame block must have shape (n, 4), got {fields.shape}")
    fields = np.column_stack([*map(check_int_array, _FIELD_NAMES, fields.T, _FIELD_MAX.tolist())])
    axes = _AXIS_BITS[fields[:, 1:]].reshape(len(fields), PAYLOAD_BITS)
    return np.concatenate([_HEAD_BITS[fields[:, 0]], axes, _BYTE_BITS[_block_crc(fields)]], axis=1)


def deserialize(bits):
    """Decode wire bits, re-verifying sync and CRC of every frame.

    One 48-bit sequence gives a CodecFrame, or raises SyncMismatchError on a
    bad preamble and CrcMismatchError when the integrity check fails. An
    (n, 48) array gives `(ok, fields)`: a boolean mask of the frames whose
    sync and CRC both hold, and the (n, 4) frame block read from every row.
    Either form raises DecodeError on a wrong length or a non-bit value; any
    other rank raises ValueError (sensor.check_rows).
    """
    rows = check_rows("bits", bits)
    if rows.shape[-1] != FRAME_BITS:
        raise DecodeError(f"expected {FRAME_BITS} bits, got {rows.shape[-1]}")
    bad = rows[(rows != 0) & (rows != 1)]
    if bad.size:
        raise DecodeError(f"bit sequence contains non-bit value {bad[0].item()!r}")
    word = rows.astype(np.uint8, copy=False) @ (1 << _BIT_SHIFTS)
    fields = (word[..., None] >> (_FIELD_SHIFTS + CRC_BITS)) & _FIELD_MAX
    sync, crc_rx, crc_want = word >> 40, word & 0xFF, _block_crc(fields)
    if rows.ndim == 2:
        return (sync == SYNC_PATTERN) & (crc_rx == crc_want), fields
    if sync != SYNC_PATTERN:
        raise SyncMismatchError(f"sync 0x{sync:02X} != 0x{SYNC_PATTERN:02X}")
    if crc_rx != crc_want:
        raise CrcMismatchError(
            f"crc 0x{crc_rx:02X} != 0x{crc_want:02X}: corrupted transmission"
        )
    mode, x, y, z = fields.tolist()
    return CodecFrame(mode=WatchMode(mode), x=x, y=y, z=z)
