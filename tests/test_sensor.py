import copy
import pickle
import re
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wristlink import sensor

from wristlink.classify import Action, CalibrationProfile, classify_window
from wristlink.demo import DEMO_NAMES, demo_csv_path, demo_trace
from wristlink.framing import CodecFrame, WatchMode
from wristlink.sensor import (
    HORIZONTAL_Y_COUNTS,
    HORIZONTAL_Y_RANGE,
    IDLE_COUNTS,
    IDLE_RANGE,
    SAMPLE_PERIOD_MS,
    VERTICAL_Z_COUNTS,
    VERTICAL_Z_RANGE,
    AccelSample,
    GestureKind,
    Trace,
    TraceFormatError,
    generate_gesture,
    load_trace,
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
    with pytest.raises(ValueError, match="^trace samples must be AccelSample, got SimpleNamespace$"):
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

    def test_trace_holds_four_columns_of_plain_ints(self):
        trace = Trace(self.SAMPLES, label=GestureKind.OTHER)
        assert (trace.t, trace.x, trace.y, trace.z) == ((0, 20), (1, 4), (2, 5), (3, 6))
        assert trace.samples is not None and trace.samples == self.SAMPLES

    def test_column_constructor_equals_the_sample_constructor(self):
        built = Trace.from_columns([0, 20], (1, 4), iter([2, 5]), range(3, 7, 3), GestureKind.OTHER)
        assert built == Trace(self.SAMPLES, label=GestureKind.OTHER)
        assert hash(built) == hash(Trace(self.SAMPLES, label=GestureKind.OTHER))
        assert built != Trace(self.SAMPLES)
        assert type(built.t) is tuple and type(built.z) is tuple

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
            (((-1, 20), (1, 4), (2, 5), (3, 6)), "t must be an integer >= 0, got -1"),
            (((0, 0), (1, 4), (2, 5), (3, 6)), "timestamps must be strictly increasing: 0 after 0"),
            (((0, 20), (1, 4), (2, True), (3, 6)), "y must be an integer in 0..1023, got True"),
            (((0, 20), (1, 4), (2, 5), (3, np.int64(6))), "z must be an integer in 0..1023, got np.int64(6)"),
            (((0, 20.0), (1, 4), (2, 5), (3, 6)), "t must be an integer >= 0, got 20.0"),
        ],
    )
    def test_column_check_names_the_first_bad_value(self, columns, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Trace.from_columns(*columns)

    def test_times_past_int64_are_plain_ints(self):
        trace = Trace.from_columns((2**63, 2**70), (1, 4), (2, 5), (3, 6))
        assert trace.t == (2**63, 2**70) and trace[1].t == 2**70

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
        t += draw(st.sampled_from([20, 20, 20, 1, 0, -1, 2**64]))
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
# line-like characters, a non-ASCII letter, counts of 1024, leading zeros and
# long digit runs, one past the default int() limit of 4300 digits
_ODD_FIELDS = st.sampled_from(
    ["", "-1", "+5", "1_0", " 5", "5 ", "5\r", "\x0c5", "5\x0b", "\u00e9", "1024", "1024",
     "99999", "0007", "0" * 30 + "9", "9" * 25, "9" * 4400]
)
_BAD_LINE_ENDS = st.sampled_from(["\n\n", "\n \n", "\x0c\n", "\n\t\n"])


@st.composite
def _near_valid_trace_texts(draw):
    # a valid file with the line ends of one style, then up to two faults
    t, times, rows = draw(st.integers(0, 3)), [], []
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 5, 8]))):
        t += draw(st.sampled_from([20, 20, 1, 10**20]))
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


def _with_int_oddities(test):
    """test with explicit examples of fields that int() alone would take,
    at either end of a row."""
    for odd in [b" 5", b"5 ", b"+5", b"-0", b"1_0", b"\t5", b"\x0c5"]:
        test = example(data=b"t_ms,x,y,z\n" + odd + b",1,2,3\n", chunk=1 << 15)(test)
        test = example(data=b"t_ms,x,y,z\n5,1,2," + odd + b"\n", chunk=1 << 15)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(data=_near_valid_trace_texts(), chunk=st.sampled_from([1, 7, 30, 1 << 15]))
@_with_int_oddities
def test_one_pass_read_matches_the_row_by_row_read(tmp_path_factory, data, chunk):
    # the one-pass read accepts exactly the files the per-row read accepts,
    # with equal columns, however its rows are chunked; on the others,
    # load_trace raises what the per-row read raises, naming the same line
    p = tmp_path_factory.getbasetemp() / "near_valid.csv"
    p.write_bytes(data)
    one_pass = []
    read_columns = sensor._read_columns

    def recording(body, label):
        one_pass.append(read_columns(body, label))
        return one_pass[-1]

    with mock.patch.object(sensor, "_read_columns", recording), mock.patch.object(
        sensor, "_READ_CHUNK_CHARS", chunk
    ):
        got = _load_outcome(p)
    with mock.patch.object(sensor, "_read_columns", lambda body, label: None):
        want = _load_outcome(p)
    assert got == want
    if one_pass:
        assert (one_pass[0] is not None) == (want[0] == "accepted")
    if want[0] == "accepted":
        trace = want[1]
        assert Trace(trace.samples) == trace == Trace.from_columns(trace.t, trace.x, trace.y, trace.z)
        assert Trace(trace.samples).samples == trace.samples
        assert trace.samples == tuple(map(AccelSample, trace.t, trace.x, trace.y, trace.z))


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
