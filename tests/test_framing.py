import math
import tracemalloc
from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models
from wristlink.framing import (
    FRAME_BITS,
    SYNC_BITS,
    SYNC_PATTERN,
    CodecFrame,
    CrcMismatchError,
    DecodeError,
    SyncMismatchError,
    WatchMode,
    _AXIS_BITS,
    _AXIS_WIRE,
    _BYTE_BITS,
    _BYTE_WIRE,
    _FIELD_CRC,
    _HEAD_BITS,
    _HEAD_WIRE,
    _MODE_CRC,
    _X_CRC,
    _Y_CRC,
    _Z_CRC,
    _frame_view,
    deserialize,
    serialize,
)
from wristlink.modem import ModemConfig, channel_apply, demodulate, modulate
from wristlink.sensor import AccelSample, _sample_view

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
    # pins the reference that the codec's field tables are held to
    assert bitwise_crc8(b"123456789") == 0xF4


def test_codec_model_known_vectors():
    # the bitwise codec of tests/models.py, which the end-to-end reference
    # encodes and decodes with, gives the standard check value and the
    # example frame, and refuses that frame with one bit flipped
    assert models.crc8(models.digits(int.from_bytes(b"123456789", "big"), 72)) == 0xF4
    assert models.encode(int(WatchMode.ACC), 100, 360, 277) == EXAMPLE_FRAME_BITS
    assert models.decode(EXAMPLE_FRAME_BITS) == (1, 100, 360, 277)
    for k in range(FRAME_BITS):
        flipped = EXAMPLE_FRAME_BITS[:k] + [1 - EXAMPLE_FRAME_BITS[k]] + EXAMPLE_FRAME_BITS[k + 1 :]
        assert models.decode(flipped) is None, k


def test_field_tables_give_each_word_s_crc():
    # the codec's CRC of a 32-bit protected word is the xor of its four
    # field-table entries: checked on random words against the bit-by-bit CRC
    words = np.random.default_rng(8).integers(0, 256, (10_000, 4), dtype=np.uint8)
    expected = [bitwise_crc8(bytes(w)) for w in words.tolist()]
    protected = [int.from_bytes(bytes(w), "big") for w in words.tolist()]
    got = [
        _MODE_CRC[p >> 30] ^ _X_CRC[p >> 20 & 1023] ^ _Y_CRC[p >> 10 & 1023] ^ _Z_CRC[p & 1023]
        for p in protected
    ]
    assert got == expected


# each field's shift in the 32-bit protected word, and its width
FIELD_LAYOUT = ((30, 2), (20, 10), (10, 10), (0, 10))
EDGE_COUNTS = st.one_of(st.sampled_from([0, 1, 511, 512, 1022, 1023]), st.integers(0, 1023))


def digits(value: int, width: int) -> list[int]:
    return [int(b) for b in f"{value:0{width}b}"]


def reference_wire_bits(mode: int, x: int, y: int, z: int) -> list[int]:
    """A frame's wire bits as the binary numeral of its 48-bit word, the
    codec's former scalar form, with the CRC taken bit by bit."""
    protected = mode << 30 | x << 20 | y << 10 | z
    word = SYNC_PATTERN << 40 | protected << 8 | bitwise_crc8(protected.to_bytes(4, "big"))
    return digits(word, FRAME_BITS)


class TestFieldTables:
    """The tables the codec encodes and checks frames with, entry by entry."""

    def test_crc_tables_hold_each_field_alone_in_its_word(self):
        scalar = (_MODE_CRC, _X_CRC, _Y_CRC, _Z_CRC)
        for column, (shift, width) in enumerate(FIELD_LAYOUT):
            expected = [bitwise_crc8((v << shift).to_bytes(4, "big")) for v in range(1 << width)]
            assert scalar[column] == expected
            assert _FIELD_CRC[column].tolist() == expected

    def test_bit_tables_hold_each_value_s_digits(self):
        tables = [
            (_HEAD_BITS, _HEAD_WIRE, [digits(SYNC_PATTERN << 2 | m, 10) for m in range(4)]),
            (_AXIS_BITS, _AXIS_WIRE, [digits(v, 10) for v in range(1024)]),
            (_BYTE_BITS, _BYTE_WIRE, [digits(b, 8) for b in range(256)]),
        ]
        for bits, wire, expected in tables:
            assert bits.dtype == np.uint8
            assert bits.tolist() == expected
            assert wire == tuple(map(bytes, expected))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(WatchMode)), EDGE_COUNTS, EDGE_COUNTS, EDGE_COUNTS)
def test_serialize_matches_the_word_numeral_and_the_block_row(mode, x, y, z):
    # one frame's bits are the bytes of its block row, and they survive the
    # codec and the noiseless modem unchanged
    frame = CodecFrame(mode, x, y, z)
    bits = serialize(frame)
    assert type(bits) is bytes
    assert bits == bytes(reference_wire_bits(mode, x, y, z))
    assert bits == serialize(np.array([(mode, x, y, z)])).tobytes()
    assert deserialize(bits) == frame
    assert demodulate(channel_apply(modulate(bits), ModemConfig())) == bits


def test_serialize_is_48_bits_and_starts_with_sync():
    bits = serialize(CodecFrame(WatchMode.ACC, 1, 2, 3))
    assert len(bits) == FRAME_BITS == 48
    assert bits[:8] == bytes([1, 0, 1, 0, 0, 1, 0, 1])
    assert int("".join(map(str, bits[:8])), 2) == SYNC_PATTERN


def test_serialize_zero_payload_has_zero_payload_bits():
    bits = serialize(CodecFrame(WatchMode.ACC, 0, 0, 0))
    assert bits[10:40] == bytes(30)
    assert bits[8:10] == bytes([0, 1])  # acc mode tag
    # crc over mode+payload bytes 40 45 00.. computed independently: 0x9B
    assert int("".join(map(str, bits[40:])), 2) == 0x9B


def test_serialize_matches_hand_computed_layout():
    frame = CodecFrame(WatchMode.ACC, x=100, y=360, z=277)
    assert serialize(frame) == bytes(EXAMPLE_FRAME_BITS)


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
    bits = bytearray(serialize(CodecFrame(WatchMode.ACC, 1, 2, 3)))
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
    bad = bytearray(serialize(frame))
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


@pytest.mark.parametrize("count", [0, 1023])
def test_frame_view_is_the_checked_frame(count):
    # the pipeline's unchecked view of one row of a Trace's columns
    view = _frame_view(WatchMode.ACC, count, 1023 - count, count)
    frame = CodecFrame(WatchMode.ACC, count, 1023 - count, count)
    assert type(view) is CodecFrame
    assert view == frame and hash(view) == hash(frame) and repr(view) == repr(frame)
    with pytest.raises(AttributeError):  # frozen, as a checked frame is
        view.x = 1
    assert view.x == count
    assert serialize(view) == serialize(frame)
    assert len(serialize(view)) == FRAME_BITS
    # the same builder's unchecked view of one row of a Trace
    row = _sample_view(count, count, 1023 - count, count)
    sample = AccelSample(count, count, 1023 - count, count)
    assert type(row) is AccelSample
    assert row == sample and hash(row) == hash(sample) and repr(row) == repr(sample)
    with pytest.raises(AttributeError):  # frozen, as a checked sample is
        row.t = 1


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
        assert list(map(bytes, block)) == [serialize(f) for f in frames]

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
        bits[5] = np.frombuffer(serialize(frames[5]), np.uint8)  # one clean row
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

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, bool])
    def test_fields_equal_the_word_numeral(self, dtype):
        # every row, valid or not, decodes from the 48-digit binary numeral
        # of its bits, whatever the bits' dtype
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, (300, FRAME_BITS))
        bits[:100] = serialize(rng.integers(0, [4, 1024, 1024, 1024], (100, 4)))
        bits[100:200, :SYNC_BITS] = EXAMPLE_FRAME_BITS[:SYNC_BITS]
        bits = bits.astype(dtype)
        ok, fields = deserialize(bits)
        assert ok[:100].all() and not ok[100:].all()
        fields_at = ((38, 3), (28, 1023), (18, 1023), (8, 1023))  # (shift, mask)
        for row, row_ok, row_fields in zip(bits.astype(int), ok.tolist(), fields.tolist()):
            word = int("".join(map(str, row)), 2)
            assert row_fields == [word >> shift & mask for shift, mask in fields_at]
            crc_ok = bitwise_crc8((word >> 8 & 0xFFFFFFFF).to_bytes(4, "big")) == word & 0xFF
            assert row_ok == (word >> 40 == SYNC_PATTERN and crc_ok)

    def test_block_decode_holds_no_int64_copy_of_the_bits(self):
        # the words are weighed from six packed bytes a frame; an int64 copy
        # of the bits alone would take 384 bytes a frame, and the decoded
        # mask and block take 33
        n = 10_200
        fields = np.column_stack([np.ones(n, int), np.arange(3 * n).reshape(n, 3) % 1024])
        bits = serialize(fields)
        tracemalloc.start()
        try:
            ok, decoded = deserialize(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok.all()
        np.testing.assert_array_equal(decoded, fields)
        assert peak < 128 * n

    def test_block_bits_validated(self):
        with pytest.raises(DecodeError, match="47"):
            deserialize(np.zeros((3, 47), dtype=np.uint8))
        bits = np.zeros((3, FRAME_BITS), dtype=np.uint8)
        bits[1, 4] = 2
        with pytest.raises(DecodeError):
            deserialize(bits)



# the CRC covers the mode, the payload and the CRC byte: wire bits 8..47
CRC_COVERED = FRAME_BITS - SYNC_BITS


def crc_weight_distribution() -> list[int]:
    """A_w, the number of CRC-covered error patterns of weight w that the
    CRC cannot see, w = 0..40, by the MacWilliams identity.

    With init 0 and no final xor, the frames' covered bits (32 protected
    bits m, then crc(m)) form a linear [40, 32] code, so a pattern passes
    the CRC exactly when it is a codeword. Its 256-word dual holds, for each
    byte s, the word whose protected bit k is the parity of s & crc(bit k)
    and whose CRC bits are s; A_w = 2**-8 * sum over the dual of the
    Krawtchouk polynomial K_w(weight of the dual word) (MacWilliams &
    Sloane, The Theory of Error-Correcting Codes, ch. 5).
    """
    columns = [bitwise_crc8((1 << k).to_bytes(4, "big")) for k in range(32)]
    dual = [0] * (CRC_COVERED + 1)
    for s in range(256):
        dual[bin(s).count("1") + sum(bin(s & c).count("1") & 1 for c in columns)] += 1

    def krawtchouk(w, i):
        return sum(
            (-1) ** j * math.comb(i, j) * math.comb(CRC_COVERED - i, w - j)
            for j in range(w + 1)
        )

    sums = [
        sum(dual[i] * krawtchouk(w, i) for i in range(CRC_COVERED + 1))
        for w in range(CRC_COVERED + 1)
    ]
    assert all(total % 256 == 0 for total in sums)
    return [total // 256 for total in sums]


class TestCrcEscapes:
    """Corrupted frames that pass the CRC, against the code's exact weight
    distribution."""

    def test_weight_distribution(self):
        a = crc_weight_distribution()
        assert a[0] == 1  # the zero pattern: no error
        assert a[1:4] == [0, 0, 0]  # Hamming distance 4 for poly 0x07
        assert a[4] == 727 and a[6] == 29_913
        assert sum(a) == 2**32

    def test_every_pattern_of_weight_up_to_3_detected(self):
        patterns = [
            cols
            for w in (1, 2, 3)
            for cols in combinations(range(SYNC_BITS, FRAME_BITS), w)
        ]
        assert len(patterns) == 10_700
        sent = serialize(np.array([(1, 100, 360, 277)]))
        rx = np.repeat(sent, len(patterns), axis=0)
        for row, cols in enumerate(patterns):
            rx[row, list(cols)] ^= 1
        ok, _ = deserialize(rx)
        assert not ok.any()

    @pytest.mark.parametrize("sigma", [1.0, 1.2])
    def test_escape_rate_over_the_channel(self, sigma):
        # bit errors are i.i.d. at the noncoherent BFSK rate p, and a frame
        # escapes when its sync bits are clean and its covered bits carry a
        # nonzero codeword
        p = 0.5 * math.exp(-2.0 / sigma**2)
        a = crc_weight_distribution()
        rate = (1 - p) ** SYNC_BITS * sum(
            a[w] * p**w * (1 - p) ** (CRC_COVERED - w) for w in range(1, CRC_COVERED + 1)
        )
        n, chunk = 50_000, 2_500
        field_rng, noise_rng = np.random.default_rng(2017), np.random.default_rng(7)
        cfg = ModemConfig(noise_sigma=sigma)
        escapes = 0
        for _ in range(n // chunk):
            sent = np.column_stack(
                [np.full(chunk, WatchMode.ACC), field_rng.integers(0, 1024, (chunk, 3))]
            )
            rx = demodulate(channel_apply(modulate(serialize(sent)), cfg, [noise_rng] * chunk))
            ok, received = deserialize(rx)
            escapes += int(np.count_nonzero(ok & (received != sent).any(axis=1)))
        z = (escapes - n * rate) / math.sqrt(n * rate * (1 - rate))
        assert abs(z) < 3, f"{escapes} escapes in {n} frames vs {n * rate:.1f}: z={z:.2f}"
