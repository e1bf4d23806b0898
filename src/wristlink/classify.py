"""Windowed-mean gesture classification with calibrated decision bands.

A window of samples maps to one of three verdicts: a z-axis window mean
inside the on band turns the appliance ON, else a y-axis mean inside the
off band turns it OFF, else DO NOTHING. A window of w samples is compared
on its integer axis sum, lo*w <= sum <= hi*w, which is the band test on the
exact mean, so boundary values are unambiguous. `classify_windows` gives
the verdict of every window sliding over a sequence at once, from
differences of the axis cumsums; `classify_window` is its one-window use.
A debounce stage requires N consecutive identical verdicts before acting.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from enum import Enum

import numpy as np

from .sensor import GestureKind, check_int

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
    axis = axis.lower()
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    samples = list(samples)
    if not samples:
        raise ValueError("window is empty")
    return Fraction(sum(getattr(s, axis) for s in samples), len(samples))


def classify_windows(z, y, profile: CalibrationProfile) -> list[Action]:
    """Verdict of every full window sliding over equal-length integer z and
    y count sequences: verdict k is that of items k..k+w-1, for the
    profile's window size w."""
    w = profile.window_size
    columns = [np.asarray(values) for values in (z, y)]
    for name, column in zip("zy", columns):
        # bool is not a NumPy integer kind, and a float sum would not be
        # exact; an empty list reads as float64 but holds no count
        if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
            raise ValueError(
                f"{name} must be a 1-D integer sequence,"
                f" got {column.dtype} of shape {column.shape}"
            )
    n = len(columns[0])
    if len(columns[1]) != n:
        raise ValueError(f"z has {n} counts but y has {len(columns[1])}")
    if n < w:
        return []
    # each window's axis sums are differences of two running sums
    running = np.zeros((2, n + 1), dtype=np.int64)
    np.cumsum(columns, axis=1, out=running[:, 1:])
    z_sums, y_sums = (running[:, w:] - running[:, :-w]).tolist()
    # the band ends are ints of any size, so the tests run on Python ints
    on_lo, on_hi = (end * w for end in profile.on_band)
    off_lo, off_hi = (end * w for end in profile.off_band)
    return [
        Action.ON if on_lo <= z_sum <= on_hi
        else Action.OFF if off_lo <= y_sum <= off_hi
        else Action.DO_NOTHING
        for z_sum, y_sum in zip(z_sums, y_sums)
    ]


def classify_window(samples, profile: CalibrationProfile) -> Action:
    """Map one full window to a verdict via inclusive band membership of the
    exact axis means, tested on integer sums."""
    samples = list(samples)
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
    negative margin inverts one. The profile keeps the default window size
    and debounce count.
    """
    check_int("margin_lo", margin_lo)
    check_int("margin_hi", margin_hi)
    on_traces = list(on_traces)
    off_traces = list(off_traces)
    if not on_traces or not off_traces:
        raise CalibrationError("need at least one trace per label")
    for trace, want in [(t, GestureKind.VERTICAL_UP_DOWN) for t in on_traces] + [
        (t, GestureKind.HORIZONTAL) for t in off_traces
    ]:
        if trace.label is not want:
            raise CalibrationError(
                f"expected a trace labeled {want.value}, got {trace.label}"
            )
    z_values = [s.z for t in on_traces for s in t]
    y_values = [s.y for t in off_traces for s in t]
    try:
        return CalibrationProfile(
            on_band=(min(z_values) - margin_lo, max(z_values) + margin_hi),
            off_band=(min(y_values) - margin_lo, max(y_values) + margin_hi),
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


def debounced_stream(verdicts, debounce_n: int) -> list[Action]:
    """Actions emitted by running a verdict sequence through a Debouncer."""
    gate = Debouncer(debounce_n)
    out = []
    for v in verdicts:
        emitted = gate.push(v)
        if emitted is not None:
            out.append(emitted)
    return out


def save_profile(profile: CalibrationProfile, path) -> None:
    """Persist a profile as the JSON profile document."""
    Path(path).write_text(json.dumps(asdict(profile), indent=2) + "\n", encoding="ascii")


def load_profile(path) -> CalibrationProfile:
    """Load a JSON profile document: an object holding exactly the fields of
    CalibrationProfile, which checks the values."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="ascii"))
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{path}: not ASCII: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProfileError(f"{path}: profile document must be a JSON object")
    keys = {f.name for f in fields(CalibrationProfile)}
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ProfileError(f"{path}: unknown profile keys: {', '.join(unknown)}")
    missing = sorted(keys - set(doc))
    if missing:
        raise ProfileError(f"{path}: missing profile keys: {', '.join(missing)}")
    try:
        return CalibrationProfile(**doc)
    except ValueError as exc:
        raise ProfileError(f"{path}: {exc}") from None
