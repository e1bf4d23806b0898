import copy
import pickle
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wristlink import sensor

from wristlink.classify import (
    Action,
    CalibrationProfile,
    classify_window,
    classify_windows,
    save_profile,
)
from wristlink.demo import DEMO_NAMES, demo_csv_path, demo_trace
from wristlink.framing import CodecFrame, WatchMode
from wristlink.modem import ModemConfig, channel_apply, measure_ber
from wristlink.sensor import (
    HORIZONTAL_Y_COUNTS,
    HORIZONTAL_Y_RANGE,
    IDLE_COUNTS,
    IDLE_RANGE,
    SAMPLE_PERIOD_MS,
    TIME_MAX,
    VERTICAL_Z_COUNTS,
    VERTICAL_Z_RANGE,
    AccelSample,
    GestureKind,
    Trace,
    TraceFormatError,
    generate_gesture,
    load_trace,
    read_json_object,
    save_trace,
)


def test_sample_validates_range():
    AccelSample(t=0, x=0, y=0, z=0)
    AccelSample(t=0, x=1023, y=1023, z=1023)
    with pytest.raises(ValueError):
        AccelSample(t=0, x=0, y=0, z=1024)
    with pytest.raises(ValueError):
        AccelSample(t=0, x=-1, y=0, z=0)
    with pytest.raises(ValueError):
        AccelSample(t=-1, x=0, y=0, z=0)


@pytest.mark.parametrize("value", [AccelSample(5, 1, 2, 3), CodecFrame(WatchMode.ACC, 1, 2, 3)])
def test_per_sample_values_are_slotted_frozen_and_copyable(value):
    # built once or twice per sample, so they carry no per-instance dict
    assert not hasattr(value, "__dict__")
    with pytest.raises(FrozenInstanceError):
        value.x = 4
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    moved = replace(value, x=4)
    assert (moved.x, moved.y, moved.z) == (4, value.y, value.z)
    with pytest.raises(ValueError):
        replace(value, x=1024)


def test_trace_requires_increasing_timestamps():
    a = AccelSample(t=0, x=1, y=2, z=3)
    b = AccelSample(t=0, x=1, y=2, z=3)
    with pytest.raises(ValueError):
        Trace((a, b))


def test_trace_holds_only_accel_samples():
    # a look-alike's float time would reach the link unchecked
    look_alike = SimpleNamespace(t=0.5, x=1, y=2, z=3)
    with pytest.raises(ValueError, match="^trace samples item must be an AccelSample, got SimpleNamespace$"):
        Trace((AccelSample(t=0, x=1, y=2, z=3), look_alike))


@pytest.mark.parametrize("label", ["vertical", 0, Action.ON])
def test_trace_label_is_a_gesture_kind(label):
    # calibrate would report "expected a trace labeled vertical, got vertical"
    with pytest.raises(ValueError, match=f"GestureKind or None, got {type(label).__name__}$"):
        Trace((AccelSample(0, 1, 2, 3),), label=label)


def test_labeled_trace_must_be_non_empty():
    with pytest.raises(ValueError):
        Trace((), label=GestureKind.OTHER)


class TestColumns:
    SAMPLES = (AccelSample(0, 1, 2, 3), AccelSample(20, 4, 5, 6))

    def test_trace_holds_four_read_only_int64_columns(self):
        trace = Trace(self.SAMPLES, label=GestureKind.OTHER)
        columns = (trace.t, trace.x, trace.y, trace.z)
        assert [column.tolist() for column in columns] == [[0, 20], [1, 4], [2, 5], [3, 6]]
        for column in columns:
            assert column.dtype == np.int64 and not column.flags.writeable
        assert trace.samples is not None and trace.samples == self.SAMPLES

    def test_column_constructor_equals_the_sample_constructor(self):
        built = Trace.from_columns([0, 20], (1, 4), iter([2, 5]), range(3, 7, 3), GestureKind.OTHER)
        assert built == Trace(self.SAMPLES, label=GestureKind.OTHER)
        assert hash(built) == hash(Trace(self.SAMPLES, label=GestureKind.OTHER))
        assert built != Trace(self.SAMPLES)
        assert type(built.t) is np.ndarray and built.z.dtype == np.int64

    def test_samples_are_cached_views_of_the_columns(self):
        trace = Trace.from_columns((0, 20), (1, 4), (2, 5), (3, 6))
        assert trace.samples is trace.samples
        assert trace.samples == self.SAMPLES
        assert list(trace) == list(self.SAMPLES) and trace[1] == self.SAMPLES[1]
        assert len(trace) == 2

    def test_trace_is_immutable_and_copyable(self):
        trace = Trace(self.SAMPLES, label=GestureKind.OTHER)
        for name in ("t", "x", "label", "samples"):
            with pytest.raises(FrozenInstanceError):
                setattr(trace, name, ())
        assert pickle.loads(pickle.dumps(trace)) == trace
        assert copy.deepcopy(trace) == trace

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match=r"^columns t, x, y, z must be of one length, got \[2, 2, 1, 2\]$"):
            Trace.from_columns((0, 20), (1, 4), (2,), (3, 6))

    @pytest.mark.parametrize(
        "columns, message",
        [
            (((0, 20), (1, 1024), (2, 5), (3, 6)), "x must be an integer in 0..1023, got 1024"),
            (((-1, 20), (1, 4), (2, 5), (3, 6)), f"t must be an integer in 0..{TIME_MAX}, got -1"),
            (((0, 0), (1, 4), (2, 5), (3, 6)), "timestamps must be strictly increasing: 0 after 0"),
            (((0, 20), (1, 4), (2, True), (3, 6)), "y must be an integer in 0..1023, got True"),
            (((0, 20), (1, 4), (2, 5), (3, np.int64(6))), "z must be an integer in 0..1023, got np.int64(6)"),
            (((0, 20.0), (1, 4), (2, 5), (3, 6)), f"t must be an integer in 0..{TIME_MAX}, got 20.0"),
        ],
    )
    def test_column_check_names_the_first_bad_value(self, columns, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Trace.from_columns(*columns)

    def test_times_up_to_the_bound_are_plain_ints(self):
        trace = Trace.from_columns((TIME_MAX - 1, TIME_MAX), (1, 4), (2, 5), (3, 6))
        assert trace.t.tolist() == [2**53 - 2, 2**53 - 1] and trace[1].t == 2**53 - 1
        assert type(trace[1].t) is int
        message = f"t must be an integer in 0..{TIME_MAX}, got {2**53}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Trace.from_columns((TIME_MAX - 1, TIME_MAX + 1), (1, 4), (2, 5), (3, 6))

    @pytest.mark.parametrize(
        "column, got",
        [
            (np.array([True, False]), "bool of shape (2,)"),
            (np.array([2.0, 5.0]), "float64 of shape (2,)"),
            (np.array([[2, 5]]), "int64 of shape (1, 2)"),
            (np.array([2, 2**63], np.uint64), "uint64 of shape (2,)"),
        ],
        ids=["bool", "float", "2-D", "uint64-past-int64"],
    )
    def test_array_column_of_another_kind_is_refused_naming_it(self, column, got):
        message = f"column y must be a 1-D array of int64 values, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Trace.from_columns(np.array([0, 20]), np.array([1, 4]), column, np.array([3, 6]))

    def test_columns_are_copies_and_read_only(self):
        t, x = np.array([0, 20]), np.array([1, 4], np.uint16)
        trace = Trace.from_columns(t, x, [2, 5], (3, 6))
        t[0], x[1] = 7, 9
        assert trace.t.tolist() == [0, 20] and trace.x.tolist() == [1, 4]
        for column in (trace.t, trace.x, trace.y, trace.z):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        for copied in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
            assert copied == trace and not copied.t.flags.writeable

    def test_file_time_past_the_bound_names_its_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f"t_ms,x,y,z\n0,1,2,3\n{TIME_MAX},4,5,6\n")
        assert load_trace(p).t.tolist() == [0, TIME_MAX]
        p.write_text(f"t_ms,x,y,z\n0,1,2,3\n{TIME_MAX + 1},4,5,6\n")
        message = f"{p}: line 2: t must be an integer in 0..{TIME_MAX}, got {TIME_MAX + 1}"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            load_trace(p)

    def test_column_builders_make_no_checked_sample(self, tmp_path, monkeypatch):
        # generate_gesture and the one-pass read fill the columns directly
        trace = generate_gesture(GestureKind.HORIZONTAL, 40, seed=2)
        p = tmp_path / "t.csv"
        save_trace(trace, p)

        def no_rows(self):
            raise AssertionError("an AccelSample was built")

        monkeypatch.setattr(AccelSample, "__post_init__", no_rows)
        assert generate_gesture(GestureKind.HORIZONTAL, 40, seed=2) == trace
        assert load_trace(p, label=GestureKind.HORIZONTAL) == trace


_SAMPLE_VALUES = st.one_of(
    st.integers(0, 1023),
    st.integers(0, 1023),
    st.sampled_from([-1, 1024, 2**70, True, False, 3.0, np.int64(7), "5", None]),
)


@st.composite
def _sample_rows(draw):
    rows, t = [], draw(st.sampled_from([0, 5, -1]))
    for _ in range(draw(st.integers(0, 6))):
        # two gaps of 2**52 pass the time bound TIME_MAX = 2**53 - 1
        t += draw(st.sampled_from([20, 20, 20, 1, 0, -1, 2**52]))
        rows.append((draw(st.one_of(st.just(t), _SAMPLE_VALUES)), *draw(st.tuples(*[_SAMPLE_VALUES] * 3))))
    return rows


def _outcome(build):
    try:
        return "accepted", build()
    except ValueError as exc:
        return "rejected", type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(rows=_sample_rows())
def test_column_check_raises_what_the_rows_give(rows):
    # the column check gives the error of the first row that would not make
    # an AccelSample, or the first time out of order, and accepts the rest
    columns = tuple(zip(*rows)) if rows else ((),) * 4

    def prefix_by_prefix():
        # the shortest prefix that is no valid trace holds the first bad value
        samples = ()
        for row in rows:
            samples += (AccelSample(*row),)
            Trace(samples)
        return Trace(samples)

    got = _outcome(lambda: Trace.from_columns(*columns))
    want = _outcome(prefix_by_prefix)
    assert got == want
    if got[0] == "accepted":
        assert got[1].samples == want[1].samples == tuple(AccelSample(*row) for row in rows)
        # the accepted rows build the same trace from int64 ndarray columns
        arrays = Trace.from_columns(*(np.array(column, np.int64) for column in columns))
        assert arrays == got[1] and hash(arrays) == hash(got[1])


class TestLoadTrace:
    def test_parses_rows_in_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t_ms,x,y,z\n0,100,200,277\n20,101,199,279\n")
        trace = load_trace(p)
        assert len(trace) == 2
        assert [s.z for s in trace] == [277, 279]
        assert trace[1] == AccelSample(t=20, x=101, y=199, z=279)

    def test_empty_file_gives_empty_trace(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert len(load_trace(p)) == 0

    def test_header_only_gives_empty_trace(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("t_ms,x,y,z\n")
        assert len(load_trace(p)) == 0

    @pytest.mark.parametrize("text", ["", "t_ms,x,y,z\n", "t_ms,x,y,z\n\n"])
    def test_labeled_empty_file_names_the_file(self, tmp_path, text):
        # a label needs a sample, and the error says which file has none
        p = tmp_path / "empty.csv"
        p.write_text(text)
        message = f"{p}: a labeled trace must be non-empty"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            load_trace(p, label=GestureKind.VERTICAL_UP_DOWN)

    @pytest.mark.parametrize("text", ["t_ms,x,y,z\n", "t_ms,x,y,z\n0,1,2,3\n"])
    def test_label_type_checked_before_the_file_is_read(self, tmp_path, text):
        # a string label names its type at once, not an empty trace or a
        # row-by-row read as the cause
        p = tmp_path / "t.csv"
        p.write_text(text)
        message = "trace label must be a GestureKind or None, got str"
        with mock.patch.object(Path, "read_text", side_effect=AssertionError("file read")):
            with pytest.raises(ValueError, match=f"^{message}$") as info:
                load_trace(p, label="vertical")
        assert type(info.value) is ValueError

    def test_valid_file_is_read_in_one_pass_as_int64_columns(self, tmp_path):
        # the parsed block is checked once, as one block, and its columns
        # are held as read-only int64 arrays, never turned into Python ints
        p = tmp_path / "t.csv"
        save_trace(generate_gesture(GestureKind.HORIZONTAL, 300, seed=8), p)
        with mock.patch.object(sensor, "_row_fault", wraps=sensor._row_fault) as check:
            trace = load_trace(p, label=GestureKind.HORIZONTAL)
        assert check.call_count == 1
        assert trace == generate_gesture(GestureKind.HORIZONTAL, 300, seed=8)
        for column in (trace.t, trace.x, trace.y, trace.z):
            assert column.dtype == np.int64 and not column.flags.writeable

    def test_out_of_range_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,x,y,z\n0,100,200,2000\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(p)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,x,y,z\n0,100,200,277\n20,oops,199,279\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,x,y,z\n0,100,200\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(p)

    def test_non_monotonic_timestamp_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,x,y,z\n20,1,2,3\n20,1,2,3\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(p)

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.lists(st.sampled_from([20, 20, 1, 0, -5]), min_size=1, max_size=6).map(
            lambda steps: list(accumulate(steps, initial=40))[1:]
        ),
        counts=st.lists(st.sampled_from([0, 277, 1023, 1024, 5000]), min_size=18, max_size=18),
    )
    @example(t=[60, 60], counts=[1] * 18)  # in range, one time repeated
    @example(t=[60, 80, 75], counts=[1] * 8 + [1024] + [1] * 9)  # row 3 out of order and of range
    def test_bad_row_reports_what_the_columns_give(self, tmp_path_factory, t, counts):
        # a bad row of a file gives, after its line number, the error that
        # Trace.from_columns gives for the columns up to that row
        x, y, z = (counts[axis::3][: len(t)] for axis in range(3))
        # the shortest rejected prefix ends in the first bad row
        prefixes = [_outcome(lambda: Trace.from_columns(t[:k], x[:k], y[:k], z[:k])) for k in range(1, len(t) + 1)]
        rejected = [(k, outcome[2]) for k, outcome in enumerate(prefixes, 1) if outcome[0] == "rejected"]
        assume(rejected)
        line, message = rejected[0]
        p = tmp_path_factory.mktemp("trace") / "bad.csv"
        p.write_text("t_ms,x,y,z\n" + "".join(map("{},{},{},{}\n".format, t, x, y, z)))
        with pytest.raises(TraceFormatError) as info:
            load_trace(p)
        assert str(info.value) == f"{p}: line {line}: {message}"

    @pytest.mark.parametrize("column", range(4))
    def test_field_holds_1_to_18_digits(self, tmp_path, column):
        # 18 characters, zero-padded or not, parse exactly and meet the
        # value rules; a 19th breaks the grammar, whatever the value
        name = "txyz"[column]
        bound = TIME_MAX if column == 0 else 1023
        p = tmp_path / "t.csv"
        for wide, error in [
            ("0" * 16 + "40", None),
            ("9" * 18, f"{name} must be an integer in 0..{bound}, got {10**18 - 1}"),
            ("0" * 17 + "40", "expected 4 comma-separated integers of 1 to 18 digits, got '{}'"),
            ("9" * 19, "expected 4 comma-separated integers of 1 to 18 digits, got '{}'"),
        ]:
            fields = ["40", "1", "2", "3"]
            fields[column] = wide
            p.write_text("t_ms,x,y,z\n0,1,2,3\n20,1,2,3\n" + ",".join(fields) + "\n")
            if error is None:
                assert load_trace(p)[2] == AccelSample(*map(int, fields))
            else:
                message = f"{p}: line 3: " + error.format(",".join(fields))
                with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
                    load_trace(p)

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("wide", ["0" * 4400 + "9", "9" * 4400], ids=["zero-padded", "nines"])
    def test_outcome_does_not_depend_on_the_int_digit_limit(self, tmp_path, column, wide):
        # a zero-padded field of 4401 characters and a field of 4400 digits
        # break the rule of 1 to 18 digits whatever int()'s digit limit: off
        # (0), its floor (640) or its default
        fields = ["40", "1", "2", "3"]
        fields[column] = wide
        p = tmp_path / "wide.csv"
        p.write_text("t_ms,x,y,z\n0,1,2,3\n20,1,2,3\n" + ",".join(fields) + "\n")
        default = sys.get_int_max_str_digits()
        outcomes = []
        try:
            for limit in (0, 640, default):
                sys.set_int_max_str_digits(limit)
                outcomes.append(_load_outcome(p))
        finally:
            sys.set_int_max_str_digits(default)
        message = f"{p}: line 3: expected 4 comma-separated integers of 1 to 18 digits, got {_quoted(','.join(fields))}"
        assert outcomes == [("rejected", "TraceFormatError", message)] * 3

    @pytest.mark.parametrize("width", [19, 80 - len("8000,1,,3"), 81 - len("8000,1,,3"), 4401])
    def test_long_bad_line_is_quoted_up_to_80_characters(self, tmp_path, width):
        # a line that breaks the grammar is quoted whole up to 80
        # characters; past that, its first 80 and its length, so that a
        # 4,401-character field does not put the whole line in the error
        rows = "".join(f"{20 * i},1,2,3\n" for i in range(400))
        line = f"8000,1,{9:0{width}d},3"  # a zero-padded field of `width` characters
        p = tmp_path / "wide.csv"
        p.write_text(f"t_ms,x,y,z\n{rows}{line}\n")
        with pytest.raises(TraceFormatError) as info:
            load_trace(p)
        prefix = f"{p}: line 401: expected 4 comma-separated integers of 1 to 18 digits, got "
        assert str(info.value) == prefix + _quoted(line)
        if len(line) > 80:
            assert str(info.value).endswith(f"... (a line of {len(line)} characters)")
        assert len(str(info.value)) <= len(prefix) + 80 + 40

    @pytest.mark.parametrize("bad_row", [1023, 1024, 1025, 2048, None])
    def test_rows_around_a_chunk_edge(self, tmp_path, bad_row):
        # the good prefix is matched 1,024 rows at a time: a bad line just
        # before, at or just after a chunk's edge is named by its line, and
        # a file of whole chunks loads whole
        rows = [f"{20 * i},1,2,3" for i in range(2048 if bad_row is None else 2100)]
        if bad_row is not None:
            rows[bad_row - 1] = f"{20 * (bad_row - 1)},1,2,x"
        p = tmp_path / "t.csv"
        p.write_text("t_ms,x,y,z\n" + "\n".join(rows) + "\n")
        if bad_row is None:
            assert len(load_trace(p)) == 2048
            return
        message = (
            f"{p}: line {bad_row}: expected 4 comma-separated integers of 1 to 18 digits,"
            f" got {rows[bad_row - 1]!r}"
        )
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            load_trace(p)

    def test_peak_memory_is_a_few_times_the_file(self, tmp_path):
        # the text, its body, the fields and two int64 blocks of the
        # columns: about 6.3 times a 100,000-row file, where a regex repeat
        # over every row at once held about 18 times it
        p = tmp_path / "long.csv"
        rows = (f"{20 * i},{200 + i % 30},{300 + i % 70},{250 + i % 40}\n" for i in range(100_000))
        p.write_text("t_ms,x,y,z\n" + "".join(rows))
        tracemalloc.start()
        try:
            trace = load_trace(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 100_000
        assert peak < 8 * p.stat().st_size

    @pytest.mark.parametrize(
        "row", ["20,1_0,2,3", "20,+20,2,3", "20, 30,2,3", "20,1,2,3 ", "1_0,+20, 30,4"]
    )
    def test_fields_must_be_plain_digits(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"t_ms,x,y,z\n0,1,2,3\n{row}\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(p)

    def test_non_ascii_byte_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes("t_ms,x,y,z\n0,1,2,3\n20,1,2,3\n40,1,2,\u00e9\n".encode("utf-8"))
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(p)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    @pytest.mark.parametrize("tail", ["", "20,1,2,3\n"])
    def test_line_like_control_character_stays_in_its_row(self, tmp_path, char, tail):
        p = tmp_path / "bad.csv"
        p.write_bytes(f"t_ms,x,y,z\n0,1,2,3{char}\n{tail}".encode("utf-8"))
        with pytest.raises(TraceFormatError, match="line 1: .*got '0,1,2,3"):
            load_trace(p)

    @pytest.mark.parametrize("last", ["\x0c", "\t", " "])
    @pytest.mark.parametrize("end", ["\n", ""])
    def test_whitespace_last_line_rejected(self, tmp_path, last, end):
        p = tmp_path / "bad.csv"
        p.write_bytes(f"t_ms,x,y,z\n0,1,2,3\n{last}{end}".encode("ascii"))
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(p)

    def test_trailing_empty_lines_ignored(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t_ms,x,y,z\n0,1,2,3\n\n\n")
        assert [s.t for s in load_trace(p)] == [0]

    def test_crlf_file_loads(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"t_ms,x,y,z\r\n0,100,200,277\r\n20,101,199,279\r\n")
        assert [s.t for s in load_trace(p)] == [0, 20]

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,100,200,277\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(p)


# field texts that break a row, or hold at its edges: signs, "_", spaces,
# line-like characters, a non-ASCII letter, counts of 1024, leading zeros,
# one past the time bound, one past int64 and long digit runs, one past the
# default int() limit of 4300 digits with or without leading zeros
_ODD_FIELDS = st.sampled_from(
    ["", "-1", "+5", "1_0", " 5", "5 ", "5\r", "\x0c5", "5\x0b", "\u00e9", "1024", "1024",
     "99999", "0007", "0" * 30 + "9", "9007199254740992", "9223372036854775808", "9" * 25,
     "9" * 4400, "0" * 4400 + "9"]
)
_BAD_LINE_ENDS = st.sampled_from(["\n\n", "\n \n", "\x0c\n", "\n\t\n"])


@st.composite
def _near_valid_trace_texts(draw):
    # a valid file with the line ends of one style, then up to two faults
    t, times, rows = draw(st.integers(0, 3)), [], []
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 5, 8]))):
        t += draw(st.sampled_from([20, 20, 1, 2**52]))  # two pass the time bound
        times.append(t)
        rows.append([str(t)] + [str(draw(st.integers(0, 1023))) for _ in range(3)])
    lines = [["t_ms,x,y,z"]] + rows
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))] * len(lines)
    tail = draw(st.sampled_from(["", "", "\n", "\n\n\n", "\r\n\r\n"]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        fault = draw(st.sampled_from(["field", "field", "time", "width", "line", "tail", "header"]))
        i = draw(st.integers(1, len(rows))) if rows else 0
        if fault == "field" and i:  # an odd field
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(_ODD_FIELDS)
        elif fault == "time" and i > 1:  # a time equal to or below the one before
            lines[i][0] = str(times[i - 2] - draw(st.integers(0, 1)))
        elif fault == "width":  # a field too many or too few
            lines[i] = lines[i] + ["7"] if draw(st.booleans()) else lines[i][:-1]
        elif fault == "line":  # a blank or whitespace line in the middle
            ends[i] = draw(_BAD_LINE_ENDS)
        elif fault == "tail":  # a whitespace tail
            tail = draw(st.sampled_from([" ", "\t\n", "\n\x0c"]))
        elif fault == "header":  # a header other than the one expected
            lines[0] = [draw(st.sampled_from(["t_ms,x,y,z ", "T_MS,x,y,z", "0,1,2,3", ""]))]
    text = "".join(",".join(line) + end for line, end in zip(lines, ends)) + tail
    data = bytearray(text.encode("utf-8"))
    if draw(st.integers(0, 12)) == 0:  # a byte that is not ASCII
        data.insert(draw(st.integers(0, len(data))), 0xFF)
    return bytes(data) if draw(st.integers(0, 19)) else b""


def _load_outcome(path):
    try:
        trace = load_trace(path, label=None)
    except ValueError as exc:
        return "rejected", type(exc).__name__, str(exc)
    return "accepted", trace


def _quoted(line: str) -> str:
    """How a trace error quotes a line that breaks the grammar: whole, up
    to 80 characters, and past that its first 80 and its length."""
    if len(line) <= 80:
        return repr(line)
    return f"{line[:80]!r}... (a line of {len(line)} characters)"


_MODEL_ROW = re.compile(r"([0-9]{1,18}),([0-9]{1,18}),([0-9]{1,18}),([0-9]{1,18})")


def _row_by_row_outcome(path):
    """_load_outcome(path) by a plain model of the format: the file's lines
    one at a time, each matched whole by the row grammar of fields of 1 to
    18 digits, read with one int() per field, and the rows so far built
    with Trace.from_columns."""
    text = path.read_text(encoding="ascii", errors="replace").rstrip("\n")
    lines = text.split("\n")
    if text and lines[0] != "t_ms,x,y,z":
        return "rejected", "TraceFormatError", f"{path}: missing 't_ms,x,y,z' header line"
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        match = _MODEL_ROW.fullmatch(line)
        if match is None:
            message = f"expected 4 comma-separated integers of 1 to 18 digits, got {_quoted(line)}"
            return "rejected", "TraceFormatError", f"{path}: line {number}: {message}"
        rows.append(tuple(map(int, match.groups())))
        try:
            Trace.from_columns(*zip(*rows))
        except ValueError as exc:
            return "rejected", "TraceFormatError", f"{path}: line {number}: {exc}"
    return "accepted", Trace.from_columns(*zip(*rows)) if rows else Trace(())


def _with_int_oddities(test):
    """test with explicit examples of fields that int() alone would take,
    at either end of a row, of fields at the edges of int64: the time
    bound and one past it, the int64 maximum and one past it, 2**64, a
    20-digit count and a count with 30 leading zeros, and of fields at the
    edge of the 18-digit rule: 18 digits, 19 digits, and 19 characters of
    zero padding."""
    for odd in [b" 5", b"5 ", b"+5", b"-0", b"1_0", b"\t5", b"\x0c5"]:
        test = example(data=b"t_ms,x,y,z\n" + odd + b",1,2,3\n")(test)
        test = example(data=b"t_ms,x,y,z\n5,1,2," + odd + b"\n")(test)
    for t in [TIME_MAX, TIME_MAX + 1, 2**63 - 1, 2**63, 2**64, 10**18 - 1, 10**18]:
        test = example(data=b"t_ms,x,y,z\n0,1,2,3\n%d,1,2,3\n" % t)(test)
    for count in [b"9" * 20, b"0" * 30 + b"1023", b"9" * 18, b"9" * 19, b"0" * 15 + b"1023", b"0" * 14 + b"1023"]:
        test = example(data=b"t_ms,x,y,z\n0,1,2,3\n20,1," + count + b",3\n")(test)
    return test


@settings(max_examples=300, deadline=None)
@given(data=_near_valid_trace_texts())
@_with_int_oddities
def test_one_pass_read_matches_the_row_by_row_read(tmp_path_factory, data):
    # load_trace accepts exactly the files the plain row-by-row model
    # accepts, with equal columns of plain ints; on the others, it raises
    # what the model raises, naming the same line
    p = tmp_path_factory.getbasetemp() / "near_valid.csv"
    p.write_bytes(data)
    got = _load_outcome(p)
    assert got == _row_by_row_outcome(p)
    if got[0] == "accepted":
        trace = got[1]
        for column in (trace.t, trace.x, trace.y, trace.z):
            assert column.dtype == np.int64 and not column.flags.writeable
        assert Trace(trace.samples) == trace
        columns = (trace.t.tolist(), trace.x.tolist(), trace.y.tolist(), trace.z.tolist())
        assert trace.samples == tuple(map(AccelSample, *columns))


class TestSaveTrace:
    def test_non_trace_rejected_naming_its_type(self, tmp_path):
        p = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="^trace must be a Trace, got list$"):
            save_trace([AccelSample(0, 1, 2, 3)], p)
        assert not p.exists()

    def test_round_trip_exact(self, tmp_path):
        trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, 17, seed=3)
        p = tmp_path / "rt.csv"
        save_trace(trace, p)
        again = load_trace(p)
        assert again.samples == trace.samples

    def test_empty_trace_round_trips(self, tmp_path):
        p = tmp_path / "empty.csv"
        save_trace(Trace(()), p)
        assert len(load_trace(p)) == 0

    def test_saved_bytes_are_stable(self, tmp_path):
        trace = Trace((AccelSample(t=0, x=1, y=2, z=3),))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_trace(trace, p1)
        save_trace(trace, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == "t_ms,x,y,z\n0,1,2,3\n"

    def test_unwritable_destination_raises(self, tmp_path):
        with pytest.raises(OSError):
            save_trace(Trace(()), tmp_path / "nope" / "t.csv")

    def test_reference_vertical_counts_survive_round_trip(self, tmp_path):
        from wristlink.sensor import VERTICAL_Z_COUNTS

        samples = tuple(
            AccelSample(t=i * 20, x=200, y=200, z=z)
            for i, z in enumerate(VERTICAL_Z_COUNTS)
        )
        p = tmp_path / "ref.csv"
        save_trace(Trace(samples), p)
        assert tuple(s.z for s in load_trace(p)) == VERTICAL_Z_COUNTS


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(GestureKind)),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_round_trip_identity_over_generated_traces(tmp_path_factory, kind, n, seed):
    trace = generate_gesture(kind, n, seed)
    p = tmp_path_factory.mktemp("rt") / "t.csv"
    save_trace(trace, p)
    assert load_trace(p).samples == trace.samples


class TestGenerateGesture:
    def test_deterministic(self):
        a = generate_gesture(GestureKind.HORIZONTAL, 18, seed=1)
        b = generate_gesture(GestureKind.HORIZONTAL, 18, seed=1)
        assert a == b

    def test_vertical_z_values_in_reference_range(self):
        trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, 17, seed=1)
        lo, hi = VERTICAL_Z_RANGE
        assert (lo, hi) == (261, 284)
        assert all(lo <= s.z <= hi for s in trace)

    def test_horizontal_y_values_in_reference_range(self):
        trace = generate_gesture(GestureKind.HORIZONTAL, 18, seed=1)
        lo, hi = HORIZONTAL_Y_RANGE
        assert (lo, hi) == (323, 381)
        assert all(lo <= s.y <= hi for s in trace)

    def test_other_uses_idle_range_on_all_axes(self):
        trace = generate_gesture(GestureKind.OTHER, 30, seed=5)
        lo, hi = IDLE_RANGE
        assert (lo, hi) == (169, 230)
        for s in trace:
            assert lo <= s.x <= hi and lo <= s.y <= hi and lo <= s.z <= hi

    def test_timestamps_follow_sample_period(self):
        trace = generate_gesture("other", 5, seed=0)
        assert [s.t for s in trace] == [i * SAMPLE_PERIOD_MS for i in range(5)]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_gesture(GestureKind.OTHER, 0, seed=1)

    @pytest.mark.parametrize("n", [True, 2.5, -1])
    def test_n_not_a_plain_positive_int_rejected(self, n):
        # True would give one sample, and 2.5 a bare TypeError from range()
        with pytest.raises(ValueError, match="n must be an int"):
            generate_gesture(GestureKind.OTHER, n, seed=1)

    @pytest.mark.parametrize("seed", [-3, 1.5, True, 2**64, "abc"])
    def test_seed_outside_the_shared_check_rejected(self, seed):
        # random.Random would take -3 as seed 3 and hash the others
        with pytest.raises(ValueError, match="seed must be an int"):
            generate_gesture(GestureKind.OTHER, 4, seed=seed)

    def test_seed_range_ends_accepted(self):
        assert len(generate_gesture(GestureKind.OTHER, 4, seed=0)) == 4
        assert len(generate_gesture(GestureKind.OTHER, 4, seed=2**64 - 1)) == 4

    def test_label_recorded(self):
        trace = generate_gesture("horizontal", 4, seed=9)
        assert trace.label is GestureKind.HORIZONTAL


_EXPECTED_ACTION = {
    GestureKind.VERTICAL_UP_DOWN: Action.ON,
    GestureKind.HORIZONTAL: Action.OFF,
    GestureKind.OTHER: Action.DO_NOTHING,
}


@pytest.mark.parametrize("kind", list(GestureKind))
def test_generated_gestures_classify_correctly_across_seeds(kind):
    # default profile, window equal to the generated length; 100 seeds each
    profile = CalibrationProfile(window_size=16)
    for seed in range(100):
        trace = generate_gesture(kind, 16, seed)
        assert classify_window(trace.samples, profile) is _EXPECTED_ACTION[kind]


_DEMO_ACTIVE = {
    "on": ("z", VERTICAL_Z_COUNTS),
    "off": ("y", HORIZONTAL_Y_COUNTS),
    "nothing": ("xyz", IDLE_COUNTS),
}


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_shipped_demo_csv_matches_reference_captures(name):
    # `--demo` loads the shipped CSV: its active axis replays the reference
    # capture, inactive axes read 200, and samples are 20 ms apart
    trace = load_trace(demo_csv_path(name))
    active, counts = _DEMO_ACTIVE[name]
    assert len(trace) == len(counts)
    for i, (s, count) in enumerate(zip(trace, counts)):
        assert s.t == 20 * i
        for axis in "xyz":
            assert getattr(s, axis) == (count if axis in active else 200)


@pytest.mark.parametrize(
    "name, label",
    [
        ("on", GestureKind.VERTICAL_UP_DOWN),
        ("off", GestureKind.HORIZONTAL),
        ("nothing", GestureKind.OTHER),
    ],
)
def test_demo_trace_is_the_labeled_csv(name, label):
    trace = demo_trace(name)
    assert trace.samples == load_trace(demo_csv_path(name)).samples
    assert trace.label is label


def test_unknown_demo_name_rejected():
    with pytest.raises(ValueError, match="unknown demo trace"):
        demo_trace("sideways")


@pytest.mark.parametrize("load", [demo_csv_path, demo_trace])
def test_demo_name_of_another_type_rejected_naming_it(load):
    # a list is no name, and fails with a ValueError, not a TypeError from
    # the lookup of an unhashable key
    with pytest.raises(ValueError, match="^name must be a str, got list$"):
        load(["on"])


_CFG, _PROFILE = "cfg must be a ModemConfig", "profile must be a CalibrationProfile"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda bad, path: measure_ber(bad, 10), _CFG),
        (lambda bad, path: channel_apply(np.zeros(16), bad), _CFG),
        (lambda bad, path: classify_windows([1, 2], [3, 4], bad), _PROFILE),
        (lambda bad, path: classify_window([AccelSample(0, 1, 2, 3)], bad), _PROFILE),
        (lambda bad, path: save_profile(bad, path), _PROFILE),
    ],
    ids=["measure_ber", "channel_apply", "classify_windows", "classify_window", "save_profile"],
)
def test_typed_parameter_rejects_another_type_naming_it(call, message, tmp_path):
    # the one type rule, sensor.check_type: a dict of the right fields is
    # still no config, and fails with a ValueError, not an AttributeError
    path = tmp_path / "profile.json"
    with pytest.raises(ValueError, match=f"^{message}, got dict$"):
        call({"noise_sigma": 0.5, "window_size": 1}, path)
    assert not path.exists()


class TestReadJsonObject:
    """read_json_object is the one reader of JSON documents: its errors name
    the fault but not the file, and what it reads does not depend on int()'s
    digit limit."""

    def read(self, tmp_path, text, keys=("a", "b"), required=()):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return read_json_object(path, keys, required)

    @pytest.mark.parametrize("limit", [0, 640, None])
    def test_integer_of_640_digits_is_read_under_any_limit(self, tmp_path, limit):
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(default if limit is None else limit)
            assert self.read(tmp_path, '{"a": -' + "7" * 640 + "}") == {"a": -int("7" * 640)}
        finally:
            sys.set_int_max_str_digits(default)

    def test_nested_long_integer_is_named_by_its_top_level_key(self, tmp_path):
        message = r"^key 'b': integer of more than 640 digits: '-1+'\.\.\. \(an integer of 642 characters\)$"
        with pytest.raises(ValueError, match=message):
            self.read(tmp_path, '{"a": [1], "b": [{"c": [-' + "1" * 641 + "]}]}")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"a": 0, "a": 5}', "'a'"),
            ('{"a": 1, "b": [{"c": 1, "d": 2, "c": 1}]}', "'c'"),
            ('{"a": {"' + "k" * 100 + '": 1, "' + "k" * 100 + '": 2}}',
             f"'{'k' * 80}'... (a key of 100 characters)"),
        ],
        ids=["top", "nested", "long"],
    )
    def test_duplicate_key_refused_at_any_depth(self, tmp_path, text, key):
        # json.loads would keep a repeated key's last value
        with pytest.raises(ValueError, match=f"^duplicate key {re.escape(key)}$"):
            self.read(tmp_path, text)

    def test_unknown_keys_come_before_missing_ones(self, tmp_path):
        with pytest.raises(ValueError, match=r"^unknown keys: c, d$"):
            self.read(tmp_path, '{"d": 1, "c": 2}', required=("a",))
        with pytest.raises(ValueError, match=r"^missing keys: a, b$"):
            self.read(tmp_path, "{}", required=("b", "a"))

    def test_a_value_too_deep_for_the_parser_is_not_valid_json(self, tmp_path):
        with pytest.raises(ValueError, match="^not valid JSON: maximum recursion depth"):
            self.read(tmp_path, '{"a": ' + "[" * 5000 + "]" * 5000 + "}")
