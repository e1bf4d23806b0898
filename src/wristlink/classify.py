"""Windowed-mean gesture classification with calibrated decision bands.

A window of samples maps to one of three verdicts: a z-axis window mean
inside the on band turns the appliance ON, else a y-axis mean inside the
off band turns it OFF, else DO NOTHING. A window of w samples is compared
on its integer axis sum, lo*w <= sum <= hi*w, which is the band test on the
exact mean, so boundary values are unambiguous. The core works on int8
columns of verdict codes, each an Action's place in definition order:
`_verdict_codes` gives the code of every window sliding over a sequence at
once, from differences of the cumsums of its z and y columns
(sensor.check_int_array), and `_emissions` is the debounce stage as one
run-length pass over a code column. `classify_windows` and
`debounced_stream` are their list-of-Action wrappers; `classify_window` is
the one-window use, and `wristlink classify` prints every w-th verdict,
that of each back-to-back window. A debounce stage requires N consecutive
identical verdicts before acting; `Debouncer` is its streaming form, one
verdict at a time.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from enum import Enum

import numpy as np

from .sensor import (COUNT_MAX, GestureKind, Trace, check_int, check_int_array, check_samples,
                     check_type, read_json_object)

# Factory default decision bands (raw z / y window means), window length,
# and consecutive-verdict count.
DEFAULT_ON_BAND = (240, 286)
DEFAULT_OFF_BAND = (323, 384)
DEFAULT_WINDOW_SIZE = 16
DEFAULT_DEBOUNCE_N = 2


class Action(Enum):
    """Classifier verdict; evaluation order is ON, then OFF, then DO_NOTHING."""

    ON = "ON"
    OFF = "OFF"
    DO_NOTHING = "DO_NOTHING"


# the verdict of each code; DO_NOTHING's code is never emitted
_ACTIONS = tuple(Action)
_ON, _OFF, _DO_NOTHING = range(len(_ACTIONS))


class CalibrationError(ValueError):
    """Calibration input is unusable or produces overlapping bands."""


class ProfileError(ValueError):
    """A persisted profile document is malformed."""


def _bands_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


@dataclass(frozen=True)
class CalibrationProfile:
    """Per-action decision bands plus window and debounce parameters, all
    plain integers."""

    on_band: tuple[int, int] = DEFAULT_ON_BAND
    off_band: tuple[int, int] = DEFAULT_OFF_BAND
    window_size: int = DEFAULT_WINDOW_SIZE
    debounce_n: int = DEFAULT_DEBOUNCE_N

    def __post_init__(self):
        for name in ("on_band", "off_band"):
            band = getattr(self, name)
            if not isinstance(band, (list, tuple)):
                raise ValueError(f"{name} must be an interval [lo, hi], got {band!r}")
            band = tuple(band)
            object.__setattr__(self, name, band)
            for i, end in enumerate(band):
                check_int(f"{name}[{i}]", end)
            if len(band) != 2 or band[0] > band[1]:
                raise ValueError(f"{name} must be an interval [lo, hi], got {band}")
        check_int("window_size", self.window_size, 1)
        check_int("debounce_n", self.debounce_n, 1)
        if _bands_overlap(self.on_band, self.off_band):
            raise ValueError(
                f"bands overlap: on_band={list(self.on_band)}"
                f" off_band={list(self.off_band)}"
            )


def window_mean(samples, axis: str) -> Fraction:
    """Exact arithmetic mean of one axis over a window of samples."""
    axis = check_type("axis", axis, str).lower()
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    samples = check_samples("window samples", samples)
    if not samples:
        raise ValueError("window is empty")
    return Fraction(sum(getattr(s, axis) for s in samples), len(samples))


def _verdict_codes(z, y, profile: CalibrationProfile) -> np.ndarray:
    """The int8 verdict code of every full window sliding over equal-length
    integer z and y count sequences: code k is that of items k..k+w-1, for
    the profile's window size w. Each column passes sensor.check_int_array
    as raw counts in 0..COUNT_MAX, so the int64 running sums cannot wrap."""
    check_type("profile", profile, CalibrationProfile)
    w = profile.window_size
    columns = []
    for name, values in zip("zy", (z, y)):
        column = np.asarray(values)
        if column.ndim != 1:
            shape = f"{column.dtype} of shape {column.shape}"
            raise ValueError(f"{name} must be a 1-D integer sequence, got {shape}")
        columns.append(check_int_array(f"{name} counts", column, COUNT_MAX))
    n = len(columns[0])
    if len(columns[1]) != n:
        raise ValueError(f"z has {n} counts but y has {len(columns[1])}")
    if n < w:
        return np.empty(0, dtype=np.int8)
    # each window's axis sums are differences of two running sums
    running = np.zeros((2, n + 1), dtype=np.int64)
    np.cumsum(columns, axis=1, out=running[:, 1:])
    z_sums, y_sums = running[:, w:] - running[:, :-w]
    # A window's sum lies in 0..COUNT_MAX * w, so a band end, an int of any
    # size, tests the same clipped to -1..COUNT_MAX + 1, and that times w
    # (w <= n) fits an int64.
    on_lo, on_hi, off_lo, off_hi = (
        min(max(end, -1), COUNT_MAX + 1) * w for end in (*profile.on_band, *profile.off_band)
    )
    on = (on_lo <= z_sums) & (z_sums <= on_hi)
    off = (off_lo <= y_sums) & (y_sums <= off_hi)
    return np.where(on, _ON, np.where(off, _OFF, _DO_NOTHING)).astype(np.int8)


def classify_windows(z, y, profile: CalibrationProfile) -> list[Action]:
    """Verdict of every full window sliding over equal-length integer z and
    y count sequences: verdict k is that of items k..k+w-1, for the
    profile's window size w (see _verdict_codes)."""
    return [_ACTIONS[code] for code in _verdict_codes(z, y, profile).tolist()]


def classify_window(samples, profile: CalibrationProfile) -> Action:
    """Map one full window to a verdict via inclusive band membership of the
    exact axis means, tested on integer sums."""
    samples = check_samples("window samples", samples)
    check_type("profile", profile, CalibrationProfile)
    if len(samples) != profile.window_size:
        raise ValueError(
            f"window has {len(samples)} samples, profile expects {profile.window_size}"
        )
    (verdict,) = classify_windows([s.z for s in samples], [s.y for s in samples], profile)
    return verdict


def calibrate(
    on_traces,
    off_traces,
    margin_lo: int = 0,
    margin_hi: int = 0,
) -> CalibrationProfile:
    """Fit decision bands to labeled training traces.

    The on band spans the z values of the vertical-motion traces widened by
    the margins; the off band spans the y values of the horizontal-motion
    traces likewise. Raises CalibrationError when input is missing, labels
    are wrong, or CalibrationProfile rejects the widened bands: they
    overlap (the gestures are not separable at these margins) or a
    negative margin inverts one, and ValueError when an item is not a
    Trace. The profile keeps the default window size and debounce count.
    """
    check_int("margin_lo", margin_lo)
    check_int("margin_hi", margin_hi)
    on_traces = list(on_traces)
    off_traces = list(off_traces)
    if not on_traces or not off_traces:
        raise CalibrationError("need at least one trace per label")
    for name, traces, want in [
        ("on_traces item", on_traces, GestureKind.VERTICAL_UP_DOWN),
        ("off_traces item", off_traces, GestureKind.HORIZONTAL),
    ]:
        for trace in traces:
            check_type(name, trace, Trace)
            if trace.label is not want:
                raise CalibrationError(
                    f"expected a trace labeled {want.value}, got {trace.label}"
                )
    z = np.concatenate([trace.z for trace in on_traces])
    y = np.concatenate([trace.y for trace in off_traces])
    try:
        return CalibrationProfile(
            on_band=(int(z.min()) - margin_lo, int(z.max()) + margin_hi),
            off_band=(int(y.min()) - margin_lo, int(y.max()) + margin_hi),
        )
    except ValueError as exc:
        raise CalibrationError(str(exc)) from None


class Debouncer:
    """Run-length gate over a verdict stream.

    An action comes out once it has held for `n` consecutive windows and
    differs from the last action emitted. DO_NOTHING only breaks runs; it is
    never emitted.
    """

    def __init__(self, n: int):
        check_int("debounce_n", n, 1)
        self.n = n
        self._run_action: Action | None = None
        self._run_len = 0
        self._last_emitted: Action | None = None

    def push(self, action: Action) -> Action | None:
        check_type("verdict", action, Action)
        if action is Action.DO_NOTHING:
            self._run_action = None
            self._run_len = 0
            return None
        if action is self._run_action:
            self._run_len += 1
        else:
            self._run_action = action
            self._run_len = 1
        if self._run_len >= self.n and action is not self._last_emitted:
            self._last_emitted = action
            return action
        return None


def _emissions(codes: np.ndarray, n: int, fresh_at: int) -> tuple[np.ndarray, np.ndarray]:
    """What a Debouncer(n) emits when pushed a column of verdict codes in
    order, a fresh Debouncer taking over at verdict fresh_at (len(codes)
    for none): the index of the verdict each action comes out at, and its
    code.

    One run-length pass. A run is a stretch of one code, and a fresh
    debouncer starts one too. A run of ON or OFF at least n long emits at
    its n-th verdict, unless its debouncer emitted that action last. That
    is the code of the full run before it, which emitted it or held it back
    as emitted already, or none for a fresh debouncer."""
    # no run is longer than the column, so n, an int of any size, emits the
    # same clipped to len(codes) + 1, which an int64 sum can take
    n = min(n, len(codes) + 1)
    runs = np.diff(codes, prepend=-1) != 0
    runs[fresh_at : fresh_at + 1] = True
    starts = np.flatnonzero(runs)
    run_codes = codes[starts]
    full = (np.diff(starts, append=len(codes)) >= n) & (run_codes != _DO_NOTHING)
    at, code = starts[full] + n - 1, run_codes[full]
    emitted = np.diff(code, prepend=-1) != 0
    emitted[np.searchsorted(at, fresh_at) :][:1] = True  # a fresh debouncer's first
    return at[emitted], code[emitted]


def debounced_stream(verdicts, debounce_n: int) -> list[Action]:
    """Actions emitted by running a verdict sequence through a Debouncer."""
    check_int("debounce_n", debounce_n, 1)
    codes = [_ACTIONS.index(check_type("verdict", v, Action)) for v in verdicts]
    _, emitted = _emissions(np.array(codes, dtype=np.int8), debounce_n, len(codes))
    return [_ACTIONS[code] for code in emitted.tolist()]


def save_profile(profile: CalibrationProfile, path) -> None:
    """Persist a profile as the JSON profile document."""
    check_type("profile", profile, CalibrationProfile)
    Path(path).write_text(json.dumps(asdict(profile), indent=2) + "\n", encoding="ascii")


def load_profile(path) -> CalibrationProfile:
    """Load a JSON profile document: an ASCII object holding exactly the
    fields of CalibrationProfile, which checks the values. Every fault
    raises ProfileError naming the file."""
    path = Path(path)
    keys = [f.name for f in fields(CalibrationProfile)]
    try:
        return CalibrationProfile(**read_json_object(path, keys, keys, "ASCII"))
    except ValueError as exc:
        raise ProfileError(f"{path}: {exc}") from None
