"""The one integer rule, `sensor.check_int`, at every library entry point
that takes an integer.

A value passes only as a plain `int` (never a `bool`, a float or a NumPy
integer) inside the entry point's range; anything else raises ValueError
whose message names the parameter and the value.
"""
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from wristlink.classify import (
    Action,
    CalibrationProfile,
    Debouncer,
    calibrate,
    debounced_stream,
)
from wristlink.controller import HomeController, run_pipeline
from wristlink.framing import CodecFrame, WatchMode
from wristlink.link import LinkConfig, LinkSimulator
from wristlink.modem import ModemConfig, measure_ber
from wristlink.sensor import (
    COUNT_MAX,
    AccelSample,
    check_counts,
    check_int,
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
    "AccelSample.t": Entry("t", lambda v: AccelSample(t=v, x=0, y=0, z=0), 0),
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
    "LinkConfig.latency": Entry("latency", lambda v: LinkConfig(latency=v), 0),
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
    "run_pipeline.pir_at": Entry("pir_at", pipeline, 0),
    "HomeController.pir_trigger": Entry("t", lambda v: HomeController().pir_trigger(v), 0),
    # an unarmed controller: t is checked before the armed test
    "HomeController.apply_action": Entry(
        "t", lambda v: HomeController().apply_action(Action.ON, v), 0
    ),
    "LinkSimulator.run_until": Entry("t", run_until_after_now, RUN_UNTIL_NOW),
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
