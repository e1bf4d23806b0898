from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristlink.framing import (
    CRC8_TABLE,
    FRAME_BITS,
    SYNC_PATTERN,
    CodecFrame,
    CrcMismatchError,
    DecodeError,
    SyncMismatchError,
    WatchMode,
    _protected_crc,
    deserialize,
    serialize,
)

# expected wire image for mode=ACC, x=100, y=360, z=277, computed by an
# independent bit-level polynomial division (crc byte 0xCF)
EXAMPLE_FRAME_BITS = [
    int(b) for b in "101001010100011001000101101000010001010111001111"
]

frames = st.builds(
    CodecFrame,
    mode=st.sampled_from(list(WatchMode)),
    x=st.integers(0, 1023),
    y=st.integers(0, 1023),
    z=st.integers(0, 1023),
)


def bitwise_crc8(data: bytes) -> int:
    """Reference CRC-8: poly 0x07, MSB first, one bit at a time."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def test_crc8_known_vector():
    # standard check value for this polynomial over ascii "123456789": it
    # pins the reference that the table and the codec's CRC are held to
    assert bitwise_crc8(b"123456789") == 0xF4


def test_crc8_table_matches_bitwise_definition():
    assert len(CRC8_TABLE) == 256
    for byte in range(256):
        assert CRC8_TABLE[byte] == bitwise_crc8(bytes([byte]))
    words = np.random.default_rng(8).integers(0, 256, (10_000, 4), dtype=np.uint8)
    expected = [bitwise_crc8(bytes(w)) for w in words.tolist()]
    # the frame codec's CRC of 32-bit protected words, one word as an int
    # and a block of words as an int64 array
    protected = [int.from_bytes(bytes(w), "big") for w in words.tolist()]
    assert [_protected_crc(p) for p in protected] == expected
    assert _protected_crc(np.array(protected, dtype=np.int64)).tolist() == expected


def test_serialize_is_48_bits_and_starts_with_sync():
    bits = serialize(CodecFrame(WatchMode.ACC, 1, 2, 3))
    assert len(bits) == FRAME_BITS == 48
    assert bits[:8] == [1, 0, 1, 0, 0, 1, 0, 1]
    assert int("".join(map(str, bits[:8])), 2) == SYNC_PATTERN


def test_serialize_zero_payload_has_zero_payload_bits():
    bits = serialize(CodecFrame(WatchMode.ACC, 0, 0, 0))
    assert bits[10:40] == [0] * 30
    assert bits[8:10] == [0, 1]  # acc mode tag
    # crc over mode+payload bytes 40 45 00.. computed independently: 0x9B
    assert int("".join(map(str, bits[40:])), 2) == 0x9B


def test_serialize_matches_hand_computed_layout():
    frame = CodecFrame(WatchMode.ACC, x=100, y=360, z=277)
    assert serialize(frame) == EXAMPLE_FRAME_BITS


def test_deserialize_inverts_example():
    assert deserialize(EXAMPLE_FRAME_BITS) == CodecFrame(WatchMode.ACC, 100, 360, 277)


def test_round_trip_mode_by_boundary_payloads():
    for mode in WatchMode:
        for x in (0, 1, 512, 1022, 1023):
            for y in (0, 1, 512, 1022, 1023):
                for z in (0, 1, 512, 1022, 1023):
                    frame = CodecFrame(mode, x, y, z)
                    assert deserialize(serialize(frame)) == frame


@settings(max_examples=300, deadline=None)
@given(frames)
def test_round_trip_random_frames(frame):
    assert deserialize(serialize(frame)) == frame


def test_deserialize_accepts_any_iterable():
    frame = CodecFrame(WatchMode.PPT, 7, 8, 9)
    assert deserialize(iter(serialize(frame))) == frame
    assert deserialize(tuple(serialize(frame))) == frame


def test_wrong_length_rejected():
    with pytest.raises(DecodeError, match="47"):
        deserialize([0] * 47)
    with pytest.raises(DecodeError):
        deserialize([0] * 49)
    with pytest.raises(DecodeError):
        deserialize([])


def test_non_bit_values_rejected():
    bits = serialize(CodecFrame(WatchMode.ACC, 1, 2, 3))
    bits[20] = 2
    with pytest.raises(DecodeError):
        deserialize(bits)


def test_sync_corruption_detected_as_sync_error():
    bits = serialize(CodecFrame(WatchMode.PPT, 10, 20, 30))
    for pos in range(8):
        bad = list(bits)
        bad[pos] ^= 1
        with pytest.raises(SyncMismatchError):
            deserialize(bad)


def test_every_protected_bit_corruption_detected():
    # all 40 non-sync positions: mode, payload, and the crc field itself
    frame = CodecFrame(WatchMode.ACC, x=100, y=360, z=277)
    bits = serialize(frame)
    for pos in range(8, 48):
        bad = list(bits)
        bad[pos] ^= 1
        with pytest.raises(CrcMismatchError):
            deserialize(bad)


@settings(max_examples=100, deadline=None)
@given(frames, st.integers(8, 47))
def test_single_bit_corruption_detected_for_random_frames(frame, pos):
    bad = serialize(frame)
    bad[pos] ^= 1
    with pytest.raises(CrcMismatchError):
        deserialize(bad)


def test_frame_rejects_out_of_range_payload():
    with pytest.raises(ValueError):
        CodecFrame(WatchMode.ACC, 1024, 0, 0)
    with pytest.raises(ValueError):
        CodecFrame(WatchMode.ACC, 0, -1, 0)
    with pytest.raises(ValueError):
        CodecFrame(5, 0, 0, 0)


class TestFrameBlocks:
    """An (n, 4) block of (mode, x, y, z) rows is n frames at once."""

    def random_frames(self, n, seed=3):
        rng = Random(seed)
        return [
            CodecFrame(
                WatchMode(rng.randrange(4)),
                rng.randrange(1024),
                rng.randrange(1024),
                rng.randrange(1024),
            )
            for _ in range(n)
        ]

    def test_block_rows_equal_single_frames(self):
        frames = self.random_frames(50)
        block = serialize(np.array([(f.mode, f.x, f.y, f.z) for f in frames]))
        assert block.shape == (50, FRAME_BITS)
        assert block.tolist() == [serialize(f) for f in frames]

    def test_block_round_trip(self):
        frames = self.random_frames(50)
        fields = np.array([(f.mode, f.x, f.y, f.z) for f in frames])
        ok, decoded = deserialize(serialize(fields))
        assert ok.tolist() == [True] * 50
        np.testing.assert_array_equal(decoded, fields)

    def test_block_flags_exactly_the_corrupted_rows(self):
        frames = self.random_frames(48)
        bits = serialize(np.array([(f.mode, f.x, f.y, f.z) for f in frames]))
        for row in range(48):
            bits[row, row] ^= 1  # row i flips bit i: sync, mode, payload, crc
        bits[5] = serialize(frames[5])  # one clean row
        ok, _ = deserialize(bits)
        for row, frame_ok in enumerate(ok.tolist()):
            assert frame_ok == (row == 5)
            if row != 5:
                error = SyncMismatchError if row < 8 else CrcMismatchError
                with pytest.raises(error):
                    deserialize(bits[row].tolist())

    def test_empty_block(self):
        bits = serialize(np.zeros((0, 4), dtype=int))
        assert bits.shape == (0, FRAME_BITS)
        ok, fields = deserialize(bits)
        assert ok.shape == (0,) and fields.shape == (0, 4)

    @pytest.mark.parametrize(
        "fields",
        [
            [(4, 0, 0, 0)],
            [(1, 1024, 0, 0)],
            [(1, 0, -1, 0)],
            [(1, 2, 3)],
            # a float block would be truncated (x = 1.5 sent as 1), a bool
            # one read as counts 0 and 1
            [(1, 1.5, 2, 3)],
            [(1.0, 1.0, 2.0, 3.0)],
            [(True, True, False, True)],
        ],
    )
    def test_block_fields_validated(self, fields):
        with pytest.raises(ValueError):
            serialize(np.array(fields))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
    def test_every_integer_dtype_encodes_alike(self, dtype):
        fields = np.array([(1, 100, 200, 255)])
        assert serialize(fields.astype(dtype)).tolist() == serialize(fields).tolist()

    def test_block_bits_validated(self):
        with pytest.raises(DecodeError, match="47"):
            deserialize(np.zeros((3, 47), dtype=np.uint8))
        bits = np.zeros((3, FRAME_BITS), dtype=np.uint8)
        bits[1, 4] = 2
        with pytest.raises(DecodeError):
            deserialize(bits)

