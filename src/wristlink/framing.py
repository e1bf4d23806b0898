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
(n, 48) array of 0/1 bits, one frame per row. One frame is the same
computation on plain ints: `serialize` of a CodecFrame gives a list of 48
ints, and `deserialize` of one 48-bit sequence gives a CodecFrame or
raises. The CRC is table-driven (Sarwate, "Computation of CRCs via table
look-up", CACM 1988) and detects every single-bit corruption of the
protected region.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .sensor import COUNT_MAX, check_counts, check_int, check_rows

SYNC_PATTERN = 0xA5
SYNC_BITS = 8
MODE_BITS = 2
AXIS_BITS = 10
PAYLOAD_BITS = 3 * AXIS_BITS
CRC_BITS = 8
FRAME_BITS = SYNC_BITS + MODE_BITS + PAYLOAD_BITS + CRC_BITS
CRC8_POLY = 0x07


def _crc8_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ CRC8_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


# CRC8_TABLE[b] is the CRC-8 of the single byte b. Plain ints index the
# tuple; _protected_crc's word arrays index the same table as an int64
# array, so that its entries mix with wide words without overflow.
CRC8_TABLE = _crc8_table()
_CRC8_ARRAY = np.array(CRC8_TABLE, dtype=np.int64)
# maps the ASCII digits of a binary numeral to bit values 0 and 1
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")

# shift placing each frame-block column (mode, x, y, z) in the 32-bit
# protected word, and the largest value each column may hold
_FIELD_SHIFTS = np.array([3 * AXIS_BITS, 2 * AXIS_BITS, AXIS_BITS, 0])
_FIELD_MAX = np.array([(1 << MODE_BITS) - 1, COUNT_MAX, COUNT_MAX, COUNT_MAX])
_PROTECTED_MASK = (1 << (MODE_BITS + PAYLOAD_BITS)) - 1
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
        object.__setattr__(self, "mode", check_mode(self.mode))
        check_counts(self.x, self.y, self.z)


def _protected_crc(protected):
    """CRC-8 of 32-bit protected word(s) over their four bytes, most
    significant first: poly 0x07, init 0x00, no reflection, no final xor.

    An int64 array of words walks the table as an array and gives one CRC
    per word.
    """
    table = _CRC8_ARRAY if isinstance(protected, np.ndarray) else CRC8_TABLE
    crc = 0
    for shift in (24, 16, 8, 0):
        crc = table[crc ^ ((protected >> shift) & 0xFF)]
    return crc


def _wire_word(mode, x, y, z):
    """48-bit wire word of in-range frame fields.

    The fields are ints for one frame, or equal-length int64 arrays for a
    block, and the word comes back in the same form.
    """
    protected = (mode << 3 * AXIS_BITS) | (x << 2 * AXIS_BITS) | (y << AXIS_BITS) | z
    return (SYNC_PATTERN << 40) | (protected << CRC_BITS) | _protected_crc(protected)


def serialize(frames):
    """Encode frames into their 48-bit wire sequences.

    A CodecFrame gives one list of 48 ints. An (n, 4) integer frame block of
    (mode, x, y, z) rows gives an (n, 48) uint8 array, one frame per row; a
    non-integer dtype or a field outside its wire range raises ValueError.
    """
    if isinstance(frames, CodecFrame):
        word = _wire_word(frames.mode, frames.x, frames.y, frames.z)
        return list(f"{word:0{FRAME_BITS}b}".encode().translate(_DIGIT_BITS))
    fields = np.asarray(frames)
    if fields.ndim != 2 or fields.shape[1] != 4:
        raise ValueError(f"frame block must have shape (n, 4), got {fields.shape}")
    # bool is not a NumPy integer type; a float block would be truncated
    if not np.issubdtype(fields.dtype, np.integer):
        raise ValueError(f"frame block must have an integer dtype, got {fields.dtype}")
    if np.any((fields < 0) | (fields > _FIELD_MAX)):
        raise ValueError("frame block field outside its wire range")
    word = _wire_word(*fields.T.astype(np.int64))
    return ((word[:, None] >> _BIT_SHIFTS) & 1).astype(np.uint8)


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
    protected = (word >> CRC_BITS) & _PROTECTED_MASK
    sync, crc_rx, crc_want = word >> 40, word & 0xFF, _protected_crc(protected)
    fields = (protected[..., None] >> _FIELD_SHIFTS) & _FIELD_MAX
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

