"""The one integer rule, `sensor.check_int`, at every library entry point
that takes an integer, and its array form, `sensor.check_int_array`, at
every one that takes a NumPy integer column.

A value passes only as a plain `int` (never a `bool`, a float or a NumPy
integer) inside the entry point's range; anything else raises ValueError
whose message names the parameter and the value. A column passes only with
an integer dtype and every entry in range, or empty; anything else raises
ValueError whose message names the column and its first bad entry.
"""
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wristlink.classify import (
    Action,
    CalibrationProfile,
    Debouncer,
    calibrate,
    classify_windows,
    debounced_stream,
)
from wristlink.controller import HomeController, run_pipeline
from wristlink.framing import FRAME_BITS, CodecFrame, WatchMode, serialize
from wristlink.link import LinkConfig, LinkSimulator
from wristlink.modem import ModemConfig, measure_ber
from wristlink.sensor import (
    COUNT_MAX,
    TIME_MAX,
    AccelSample,
    check_counts,
    check_int,
    check_int_array,
    check_seed,
    generate_gesture,
)

SEED_MAX = 2**64 - 1
RUN_UNTIL_NOW = 5
TRAINING = ([generate_gesture("vertical", 20, 1)], [generate_gesture("horizontal", 20, 2)])


def pipeline(pir_at):
    return run_pipeline(generate_gesture("vertical", 20, 1), pir_at=pir_at)


def armed_controller():
    ctrl = HomeController()
    ctrl.pir_trigger(0)
    return ctrl


def set_mode(mode):
    sim = LinkSimulator()
    sim.ap_start()
    return sim.watch_set_mode(mode)


def run_until_after_now(t):
    sim = LinkSimulator()
    sim.run_until(RUN_UNTIL_NOW)
    return sim.run_until(t)


class Entry(NamedTuple):
    """An entry point: the parameter its message names, a call passing the
    value to it, the range ends (None where open), and, for a range open at
    both ends, one value it accepts."""

    param: str
    call: Callable
    lo: int | None = None
    hi: int | None = None
    typical: int | None = None


ENTRIES = {
    "check_counts.x": Entry("x", lambda v: check_counts(v, 0, 0), 0, COUNT_MAX),
    "check_counts.y": Entry("y", lambda v: check_counts(0, v, 0), 0, COUNT_MAX),
    "check_counts.z": Entry("z", lambda v: check_counts(0, 0, v), 0, COUNT_MAX),
    "AccelSample.x": Entry("x", lambda v: AccelSample(t=0, x=v, y=0, z=0), 0, COUNT_MAX),
    "AccelSample.y": Entry("y", lambda v: AccelSample(t=0, x=0, y=v, z=0), 0, COUNT_MAX),
    "AccelSample.z": Entry("z", lambda v: AccelSample(t=0, x=0, y=0, z=v), 0, COUNT_MAX),
    "AccelSample.t": Entry("t", lambda v: AccelSample(t=v, x=0, y=0, z=0), 0, TIME_MAX),
    "CodecFrame.mode": Entry("mode", lambda v: CodecFrame(v, 0, 0, 0), 0, 3),
    "LinkSimulator.watch_set_mode": Entry("mode", set_mode, 0, 3),
    "CodecFrame.x": Entry("x", lambda v: CodecFrame(WatchMode.ACC, v, 0, 0), 0, COUNT_MAX),
    "CodecFrame.y": Entry("y", lambda v: CodecFrame(WatchMode.ACC, 0, v, 0), 0, COUNT_MAX),
    "CodecFrame.z": Entry("z", lambda v: CodecFrame(WatchMode.ACC, 0, 0, v), 0, COUNT_MAX),
    "check_seed": Entry("seed", check_seed, 0, SEED_MAX),
    "LinkConfig.seed": Entry("seed", lambda v: LinkConfig(seed=v), 0, SEED_MAX),
    "ModemConfig.seed": Entry("seed", lambda v: ModemConfig(seed=v), 0, SEED_MAX),
    "generate_gesture.seed": Entry(
        "seed", lambda v: generate_gesture("other", 1, v), 0, SEED_MAX
    ),
    "generate_gesture.n": Entry("n", lambda v: generate_gesture("other", v, 0), 1),
    "LinkConfig.latency": Entry("latency", lambda v: LinkConfig(latency=v), 0, TIME_MAX),
    "CalibrationProfile.on_band[0]": Entry(
        "on_band[0]", lambda v: CalibrationProfile(on_band=(v, 286)), typical=240
    ),
    "CalibrationProfile.on_band[1]": Entry(
        "on_band[1]", lambda v: CalibrationProfile(on_band=(240, v)), typical=286
    ),
    "CalibrationProfile.off_band[0]": Entry(
        "off_band[0]", lambda v: CalibrationProfile(off_band=(v, 384)), typical=323
    ),
    "CalibrationProfile.off_band[1]": Entry(
        "off_band[1]", lambda v: CalibrationProfile(off_band=(323, v)), typical=384
    ),
    "CalibrationProfile.window_size": Entry(
        "window_size", lambda v: CalibrationProfile(window_size=v), 1
    ),
    "CalibrationProfile.debounce_n": Entry(
        "debounce_n", lambda v: CalibrationProfile(debounce_n=v), 1
    ),
    "calibrate.margin_lo": Entry("margin_lo", lambda v: calibrate(*TRAINING, v, 0), typical=0),
    "calibrate.margin_hi": Entry("margin_hi", lambda v: calibrate(*TRAINING, 0, v), typical=0),
    "Debouncer": Entry("debounce_n", Debouncer, 1),
    "debounced_stream": Entry("debounce_n", lambda v: debounced_stream([Action.ON], v), 1),
    "run_pipeline.pir_at": Entry("pir_at", pipeline, 0, TIME_MAX),
    "HomeController.pir_trigger": Entry(
        "t", lambda v: HomeController().pir_trigger(v), 0, TIME_MAX
    ),
    # an unarmed controller: t is checked before the armed test
    "HomeController.apply_action": Entry(
        "t", lambda v: HomeController().apply_action(Action.ON, v), 0, TIME_MAX
    ),
    "LinkSimulator.run_until": Entry("t", run_until_after_now, RUN_UNTIL_NOW, TIME_MAX),
    "measure_ber": Entry("n_bits", lambda v: measure_ber(ModemConfig(), v), 1),
}


def rejected_values(entry):
    """True, 1.5, and the first value past each closed range end."""
    values = [True, 1.5]
    if entry.lo is not None:
        values.append(entry.lo - 1)
    if entry.hi is not None:
        values.append(entry.hi + 1)
    return values


def accepted_values(entry):
    """The range ends, or the typical value of a range open at both ends."""
    ends = [end for end in (entry.lo, entry.hi) if end is not None]
    return ends or [entry.typical]


def message_pattern(param, value):
    return rf"^{re.escape(param)} must be an integer\b.*, got {re.escape(repr(value))}$"


@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name, entry in ENTRIES.items() for v in rejected_values(entry)],
)
def test_entry_point_rejects(name, value):
    entry = ENTRIES[name]
    with pytest.raises(ValueError, match=message_pattern(entry.param, value)):
        entry.call(value)


@pytest.mark.parametrize(
    "name, value",
    [(name, v) for name, entry in ENTRIES.items() for v in accepted_values(entry)],
)
def test_entry_point_accepts(name, value):
    ENTRIES[name].call(value)


VERTICAL = generate_gesture("vertical", 20, 1)

# calls whose value each was accepted before the rule covered its entry point
ONCE_ACCEPTED = {
    "AccelSample(x=1.5)": ("x", 1.5, lambda: AccelSample(t=0, x=1.5, y=0, z=0)),
    "AccelSample(x=True)": ("x", True, lambda: AccelSample(t=0, x=True, y=0, z=0)),
    "CodecFrame(x=1.5)": ("x", 1.5, lambda: CodecFrame(WatchMode.ACC, 1.5, 2, 3)),
    "CodecFrame(x=True)": ("x", True, lambda: CodecFrame(WatchMode.ACC, True, 2, 3)),
    # each of these mode tags was once read as ACC
    "CodecFrame(mode=True)": ("mode", True, lambda: CodecFrame(True, 2, 3, 4)),
    "CodecFrame(mode=1.0)": ("mode", 1.0, lambda: CodecFrame(1.0, 2, 3, 4)),
    "CodecFrame(mode=np.int64(1))": (
        "mode", np.int64(1), lambda: CodecFrame(np.int64(1), 2, 3, 4)
    ),
    "watch_set_mode(True)": ("mode", True, lambda: set_mode(True)),
    "watch_set_mode(1.0)": ("mode", 1.0, lambda: set_mode(1.0)),
    "watch_set_mode(np.int64(1))": ("mode", np.int64(1), lambda: set_mode(np.int64(1))),
    "AccelSample(t=0.5)": ("t", 0.5, lambda: AccelSample(t=0.5, x=0, y=0, z=0)),
    "run_pipeline(pir_at=2.5)": ("pir_at", 2.5, lambda: run_pipeline(VERTICAL, pir_at=2.5)),
    "run_pipeline(pir_at=True)": (
        "pir_at", True, lambda: run_pipeline(VERTICAL, pir_at=True)
    ),
    "pir_trigger(2.5)": ("t", 2.5, lambda: HomeController().pir_trigger(2.5)),
    "apply_action(2.5)": ("t", 2.5, lambda: armed_controller().apply_action(Action.ON, 2.5)),
    "Debouncer(1.5)": ("debounce_n", 1.5, lambda: Debouncer(1.5)),
    "Debouncer(True)": ("debounce_n", True, lambda: Debouncer(True)),
    "debounced_stream(1.5)": (
        "debounce_n", 1.5, lambda: debounced_stream([Action.ON, Action.ON], 1.5)
    ),
    "run_until(2.5)": ("t", 2.5, lambda: LinkSimulator().run_until(2.5)),
    "measure_ber(True)": ("n_bits", True, lambda: measure_ber(ModemConfig(), True)),
    "calibrate(margin_lo=True)": ("margin_lo", True, lambda: calibrate(*TRAINING, True)),
}


@pytest.mark.parametrize("name", ONCE_ACCEPTED)
def test_once_accepted_values_rejected(name):
    param, value, call = ONCE_ACCEPTED[name]
    with pytest.raises(ValueError, match=message_pattern(param, value)):
        call()


@pytest.mark.parametrize(
    "lo, hi, value, message",
    [
        (None, None, 1.5, "k must be an integer, got 1.5"),
        (1, None, 0, "k must be an integer >= 1, got 0"),
        (None, 10, 11, "k must be an integer <= 10, got 11"),
        (0, 10, -1, "k must be an integer in 0..10, got -1"),
        (0, 10, False, "k must be an integer in 0..10, got False"),
        (0, 10, np.int64(3), f"k must be an integer in 0..10, got {np.int64(3)!r}"),
        (0, 10, "3", "k must be an integer in 0..10, got '3'"),
        # a value's repr is shown whole up to 80 characters, past that its
        # first 80 and its length
        (0, 10, "7" * 78, f"k must be an integer in 0..10, got '{'7' * 78}'"),
        (0, 10, "7" * 79, f"k must be an integer in 0..10, got '{'7' * 79}... (a value of 81 characters)"),
        (1, None, [0] * 10**5, f"k must be an integer >= 1, got [{'0, ' * 26}0... (a value of 300000 characters)"),
    ],
)
def test_check_int_message(lo, hi, value, message):
    with pytest.raises(ValueError) as info:
        check_int("k", value, lo, hi)
    assert str(info.value) == message


def test_check_int_passes_plain_ints_in_range():
    check_int("k", -(2**70))
    check_int("k", 0, 0, 0)
    check_int("k", 10, hi=10)


# count values of every kind check_int tells apart, around and past the range
ODD_COUNTS = [True, False, np.int64(5), np.uint16(7), 5.0, -1, 1024, 2**70, "5"]
COUNT_VALUES = st.one_of(st.integers(0, COUNT_MAX), st.sampled_from(ODD_COUNTS))


def raised(call) -> str | None:
    """The text of the ValueError that call raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(COUNT_VALUES, COUNT_VALUES, COUNT_VALUES)
def test_check_counts_raises_what_three_check_int_calls_raise(x, y, z):
    def three_checks():
        for name, value in zip("xyz", (x, y, z)):
            check_int(name, value, 0, COUNT_MAX)

    assert raised(lambda: check_counts(x, y, z)) == raised(three_checks)


# sample rows with a bad field or two: each raises check_int's error for its
# first bad field, in t, x, y, z order
BAD_ROWS = {
    "t and x bad": ("t", -1, lambda: AccelSample(t=-1, x=1024, y=0, z=0)),
    "x and z bad": ("x", 1.5, lambda: AccelSample(t=0, x=1.5, y=0, z=True)),
    "y and z bad": ("y", "5", lambda: AccelSample(t=0, x=0, y="5", z=-1)),
    "z and t bad": ("t", 2.0, lambda: AccelSample(t=2.0, x=0, y=0, z=2**70)),
    "t is np.int64": ("t", np.int64(0), lambda: AccelSample(t=np.int64(0), x=0, y=0, z=0)),
    "x is np.int64": ("x", np.int64(1), lambda: AccelSample(t=0, x=np.int64(1), y=0, z=0)),
    "y is np.int64": ("y", np.int64(2), lambda: AccelSample(t=0, x=0, y=np.int64(2), z=0)),
    "z is np.int64": ("z", np.int64(3), lambda: AccelSample(t=0, x=0, y=0, z=np.int64(3))),
}


@pytest.mark.parametrize("name", BAD_ROWS)
def test_sample_row_names_its_first_bad_field(name):
    param, value, call = BAD_ROWS[name]
    hi = TIME_MAX if param == "t" else COUNT_MAX
    assert raised(call) == raised(lambda: check_int(param, value, 0, hi))


ARRAY_DTYPES = [np.bool_, np.int8, np.uint8, np.int64, np.uint64, np.float64, object]
FIELD_MAX = {"mode": 3, "x": COUNT_MAX, "y": COUNT_MAX, "z": COUNT_MAX}


def column_entries(dtype, hi) -> list:
    """Of -1, 0, hi, hi + 1 and 2**63, the ones an array of dtype holds as
    themselves (any of them for bool, float64 and object, cast)."""
    values = [-1, 0, hi, hi + 1, 2**63]
    if np.dtype(dtype).kind in "iu":
        info = np.iinfo(dtype)
        values = [v for v in values if info.min <= v <= info.max]
    return values


@st.composite
def int_block(draw, bounds, max_rows=4):
    """An (n, len(bounds)) array of one drawn dtype, n from 0 up, column j
    holding entries around bounds[j]."""
    dtype = draw(st.sampled_from(ARRAY_DTYPES))
    n = draw(st.integers(0, max_rows))
    columns = [
        draw(st.lists(st.sampled_from(column_entries(dtype, hi)), min_size=n, max_size=n))
        for hi in bounds
    ]
    return np.array(list(zip(*columns)), dtype=dtype).reshape(n, len(bounds))


def array_rule_message(name, column, hi) -> str | None:
    """What check_int_array raises for column, worked out on plain ints."""
    if not column.size:
        return None
    if column.dtype.kind not in "iu":
        return f"{name} must have an integer dtype, got {column.dtype} {column.flat[0]}"
    bad = [v for v in column.tolist() if not 0 <= v <= hi]
    return f"{name} must lie in 0..{hi}, got {bad[0]}" if bad else None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, COUNT_MAX]).flatmap(lambda hi: st.tuples(int_block([hi]), st.just(hi))))
def test_check_int_array_names_the_column_and_its_first_bad_entry(block_hi):
    block, hi = block_hi
    column = block[:, 0]
    want = array_rule_message("c", column, hi)
    assert raised(lambda: check_int_array("c", column, hi)) == want
    if want is None:
        checked = check_int_array("c", column, hi)
        assert checked.dtype.kind in "iu" and checked.tolist() == column.tolist()
        if not column.size:
            assert checked.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(int_block(list(FIELD_MAX.values())))
@example(np.zeros((0, 4)))  # an empty float block holds no field to truncate
def test_block_serialize_applies_the_array_rule(block):
    # each column against its wire range, mode first
    def columns_checked():
        for (name, hi), column in zip(FIELD_MAX.items(), block.T):
            check_int_array(name, column, hi)

    want = raised(columns_checked)
    assert raised(lambda: serialize(block)) == want
    if want is None:
        bits = serialize(block)
        assert bits.shape == (len(block), FRAME_BITS) and bits.dtype == np.uint8
        assert list(map(bytes, bits)) == [serialize(CodecFrame(*row)) for row in block.tolist()]


@settings(max_examples=300, deadline=None)
@given(int_block([COUNT_MAX, COUNT_MAX], max_rows=5))
@example(np.zeros((0, 2)))
def test_classify_windows_applies_the_array_rule(block):
    z, y = block.T
    profile = CalibrationProfile(window_size=2)

    def columns_checked():
        check_int_array("z counts", z, COUNT_MAX)
        check_int_array("y counts", y, COUNT_MAX)

    want = raised(columns_checked)
    assert raised(lambda: classify_windows(z, y, profile)) == want
    if want is None:
        assert classify_windows(z, y, profile) == classify_windows(z.tolist(), y.tolist(), profile)
