"""Wearable accelerometer model: timestamped 3-axis raw-count sample streams.

Samples carry 10-bit ADC counts (0..1023) at a default 50 Hz rate. Traces
round-trip through a plain CSV format, and a seeded generator synthesizes the
three wrist gestures the classifier distinguishes, with per-axis statistics
matched to the reference captures below.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from random import Random

import numpy as np

COUNT_MIN = 0
COUNT_MAX = 1023  # 10-bit ADC
SAMPLE_PERIOD_MS = 20  # 50 Hz

TRACE_HEADER = "t_ms,x,y,z"
# a data row is four decimal integers: digits only, no sign, space or "_"
_TRACE_ROW = re.compile(r"([0-9]+),([0-9]+),([0-9]+),([0-9]+)")

# Reference captures from the wrist-worn sensor: raw counts seen on the active
# axis during vertical wrist motion (z axis), horizontal wrist motion (y axis),
# and idle wear (any axis). They calibrate the synthetic generator and ship as
# demo fixtures (see wristlink.demo).
VERTICAL_Z_COUNTS = (
    277, 279, 282, 284, 265, 277, 261, 274, 269,
    276, 270, 280, 270, 267, 268, 279, 272,
)
HORIZONTAL_Y_COUNTS = (
    360, 363, 374, 379, 367, 326, 331, 356, 323,
    381, 335, 359, 339, 368, 352, 378, 372, 335,
)
IDLE_COUNTS = (
    230, 225, 228, 192, 219, 212, 217, 199, 208, 224,
    211, 184, 182, 179, 184, 169, 201, 206, 215,
)

VERTICAL_Z_RANGE = (min(VERTICAL_Z_COUNTS), max(VERTICAL_Z_COUNTS))
HORIZONTAL_Y_RANGE = (min(HORIZONTAL_Y_COUNTS), max(HORIZONTAL_Y_COUNTS))
IDLE_RANGE = (min(IDLE_COUNTS), max(IDLE_COUNTS))


class GestureKind(Enum):
    """Hand-wrist motion label for a trace segment."""

    VERTICAL_UP_DOWN = "vertical"
    HORIZONTAL = "horizontal"
    OTHER = "other"


class TraceFormatError(ValueError):
    """A trace file violates the CSV trace format."""


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ValueError naming the parameter and the value unless value is a
    plain int in lo..hi, an end given as None being open. This is the one
    integer rule: a bool, a float or a NumPy integer never passes."""
    if type(value) is not int or (lo is not None and value < lo) or (hi is not None and value > hi):
        if lo is None:
            span = "" if hi is None else f" <= {hi}"
        else:
            span = f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def check_rows(name: str, values, dtype=None) -> np.ndarray:
    """values as an array holding one row (1-D) or a block of rows (2-D),
    an iterable other than an array being read whole first. This is the one
    rank rule of the radio path: any other rank raises ValueError naming the
    parameter and the shape."""
    if not isinstance(values, np.ndarray) and np.iterable(values):
        values = list(values)
    rows = np.asarray(values, dtype=dtype)
    if rows.ndim not in (1, 2):
        raise ValueError(f"{name} must be a 1-D row or a 2-D block, got shape {rows.shape}")
    return rows


def check_counts(x: int, y: int, z: int) -> None:
    """Raise ValueError unless every axis is a raw count in COUNT_MIN..COUNT_MAX."""
    check_int("x", x, COUNT_MIN, COUNT_MAX)
    check_int("y", y, COUNT_MIN, COUNT_MAX)
    check_int("z", z, COUNT_MIN, COUNT_MAX)


def check_seed(seed) -> None:
    """Raise ValueError unless seed is an int in 0..2**64 - 1: the seed of a
    LinkConfig, a ModemConfig or generate_gesture, whose generators would
    silently coerce an out-of-range int to another seed."""
    check_int("seed", seed, 0, 2**64 - 1)


@dataclass(frozen=True, slots=True)
class AccelSample:
    """One timestamped 3-axis reading in raw counts; t is an int >= 0 (ms)."""

    t: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        check_int("t", self.t, 0)
        check_counts(self.x, self.y, self.z)


@dataclass(frozen=True)
class Trace:
    """Ordered sample sequence with an optional gesture label.

    The label is an in-memory annotation; the CSV file format persists
    samples only.
    """

    samples: tuple[AccelSample, ...]
    label: GestureKind | None = None

    def __post_init__(self):
        if self.label is not None and not isinstance(self.label, GestureKind):
            raise ValueError(
                f"trace label must be a GestureKind or None, got {type(self.label).__name__}"
            )
        object.__setattr__(self, "samples", tuple(self.samples))
        prev = -1
        for s in self.samples:
            # an AccelSample's t is a checked int, which the link takes as is
            if not isinstance(s, AccelSample):
                raise ValueError(f"trace samples must be AccelSample, got {type(s).__name__}")
            if s.t <= prev:
                raise ValueError(
                    f"timestamps must be strictly increasing: {s.t} after {prev}"
                )
            prev = s.t
        if self.label is not None and not self.samples:
            raise ValueError("a labeled trace must be non-empty")

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def load_trace(path, label: GestureKind | None = None) -> Trace:
    """Parse a CSV trace file (`t_ms,x,y,z` header, one sample per row).

    Each field is ASCII decimal digits only. An empty file yields an empty
    trace. Empty lines at the end of the file are ignored; any other line,
    whitespace-only ones included, must be a data row. Errors report the
    offending data row as a 1-based line number. The optional label is
    attached in memory; the file carries none.
    """
    path = Path(path)
    # a non-ASCII byte decodes to U+FFFD, which no row or header matches;
    # read_text has turned \r\n and \r into \n, and splitting on \n alone
    # keeps a form feed or other line-like control character inside its row
    lines = path.read_text(encoding="ascii", errors="replace").split("\n")
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        return Trace((), label=label)
    if lines[0] != TRACE_HEADER:
        raise TraceFormatError(f"{path}: missing '{TRACE_HEADER}' header line")

    samples = []
    prev_t = -1
    for row, line in enumerate(lines[1:], start=1):
        match = _TRACE_ROW.fullmatch(line)
        if match is None:
            raise TraceFormatError(
                f"{path}: line {row}: expected 4 comma-separated integers, got {line!r}"
            )
        t, x, y, z = map(int, match.groups())
        if t <= prev_t:
            raise TraceFormatError(
                f"{path}: line {row}: t_ms {t} not greater than previous {prev_t}"
            )
        try:
            samples.append(AccelSample(t, x, y, z))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {row}: {exc}") from None
        prev_t = t
    return Trace(tuple(samples), label=label)


def save_trace(trace: Trace, path) -> None:
    """Write a trace as CSV; reloading reproduces the samples exactly."""
    path = Path(path)
    rows = [TRACE_HEADER]
    rows.extend(f"{s.t},{s.x},{s.y},{s.z}" for s in trace.samples)
    path.write_text("\n".join(rows) + "\n", encoding="ascii")


_GESTURE_AXIS_RANGES = {
    GestureKind.VERTICAL_UP_DOWN: (IDLE_RANGE, IDLE_RANGE, VERTICAL_Z_RANGE),
    GestureKind.HORIZONTAL: (IDLE_RANGE, HORIZONTAL_Y_RANGE, IDLE_RANGE),
    GestureKind.OTHER: (IDLE_RANGE, IDLE_RANGE, IDLE_RANGE),
}


def generate_gesture(kind: GestureKind | str, n: int, seed: int) -> Trace:
    """Synthesize a labeled gesture trace, deterministic in (kind, n, seed).

    The gesture's active axis draws uniformly from the reference capture
    range for that motion; inactive axes draw from the idle range. Samples
    are spaced SAMPLE_PERIOD_MS apart starting at t=0. `n` is an int >= 1,
    and `seed` passes check_seed.
    """
    check_int("n", n, 1)
    check_seed(seed)
    kind = GestureKind(kind)
    rx, ry, rz = _GESTURE_AXIS_RANGES[kind]
    rng = Random(seed)
    samples = tuple(
        AccelSample(
            t=i * SAMPLE_PERIOD_MS,
            x=rng.randint(*rx),
            y=rng.randint(*ry),
            z=rng.randint(*rz),
        )
        for i in range(n)
    )
    return Trace(samples, label=kind)
