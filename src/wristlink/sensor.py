"""Wearable accelerometer model: timestamped 3-axis raw-count sample streams.

Samples carry 10-bit ADC counts (0..1023) at a default 50 Hz rate. A Trace
holds its samples as four columns of plain ints (t, x, y, z), checked once
as columns; an AccelSample is one row. Traces round-trip through a plain
CSV format, which load_trace reads in one pass over the whole file, falling
back to a row-by-row read only to name the line of a bad row. A seeded
generator synthesizes the three wrist gestures the classifier
distinguishes, with per-axis statistics matched to the reference captures
below.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import lt
from pathlib import Path
from random import Random

import numpy as np

COUNT_MIN = 0
COUNT_MAX = 1023  # 10-bit ADC
SAMPLE_PERIOD_MS = 20  # 50 Hz

TRACE_HEADER = "t_ms,x,y,z"
# a data row is four decimal integers: digits only, no sign, space or "_"
_TRACE_ROW = re.compile(r"([0-9]+),([0-9]+),([0-9]+),([0-9]+)")
# the rows after the header, each ending in \n, all in one match
_TRACE_BODY = re.compile(r"(?:[0-9]+,[0-9]+,[0-9]+,[0-9]+\n)*")
# characters of rows whose fields are split and parsed at a time: all of a
# trace's field strings at once would take ~50 bytes per field
_READ_CHUNK_CHARS = 1 << 15

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


def check_samples(name: str, samples) -> tuple[AccelSample, ...]:
    """samples as a tuple, after raising ValueError naming the parameter and
    the type of the first item that is not an AccelSample."""
    samples = tuple(samples)
    for s in samples:
        if not isinstance(s, AccelSample):
            raise ValueError(f"{name} must be AccelSample, got {type(s).__name__}")
    return samples


def check_trace(name: str, trace) -> None:
    """Raise ValueError naming the parameter and the type unless trace is a Trace."""
    if not isinstance(trace, Trace):
        raise ValueError(f"{name} must be a Trace, got {type(trace).__name__}")


# the slot setters of AccelSample, which build a view without a second check
_SET_T, _SET_X, _SET_Y, _SET_Z = (AccelSample.__dict__[axis].__set__ for axis in "txyz")


def _sample_view(t: int, x: int, y: int, z: int) -> AccelSample:
    """The AccelSample of one row of checked columns, not checked again."""
    sample = object.__new__(AccelSample)
    _SET_T(sample, t)
    _SET_X(sample, x)
    _SET_Y(sample, y)
    _SET_Z(sample, z)
    return sample


def _check_columns(t, x, y, z) -> None:
    """Raise ValueError unless each row (t, x, y, z) of the equal-length
    columns passes AccelSample's checks and t is strictly increasing. The
    whole columns are checked at once; only on failure does a loop over
    the rows find the first bad value, with the error AccelSample or the
    time order gives for it."""
    if t and not (
        {*map(type, t), *map(type, x), *map(type, y), *map(type, z)} == {int}
        and t[0] >= 0
        and all(map(lt, t, t[1:]))
        and all(COUNT_MIN <= min(c) and max(c) <= COUNT_MAX for c in (x, y, z))
    ):
        prev = -1
        for row in zip(t, x, y, z):
            AccelSample(*row)
            if row[0] <= prev:
                raise ValueError(f"timestamps must be strictly increasing: {row[0]} after {prev}")
            prev = row[0]


@dataclass(frozen=True, init=False)
class Trace:
    """Ordered samples with an optional gesture label, held as four columns
    of plain ints: the times t (ms >= 0, strictly increasing) and the raw
    counts x, y and z (COUNT_MIN..COUNT_MAX).

    `Trace.from_columns(t, x, y, z, label)` builds a trace from the
    columns, checking each once as a column. `Trace(samples, label)`
    unpacks AccelSamples into the columns. `samples` holds the rows as
    AccelSamples: the ones a trace was built from, or else views of the
    columns built on first use. Iteration, indexing and len() go by
    sample. The label is an in-memory annotation; the CSV file format
    persists samples only.
    """

    t: tuple[int, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]
    label: GestureKind | None
    _samples: tuple[AccelSample, ...] | None = field(compare=False, repr=False)

    def __init__(self, samples, label: GestureKind | None = None):
        samples = check_samples("trace samples", samples)
        columns = zip(*[(s.t, s.x, s.y, s.z) for s in samples]) if samples else ((),) * 4
        self._fill(*columns, label, samples)

    @classmethod
    def from_columns(cls, t, x, y, z, label: GestureKind | None = None) -> Trace:
        """The trace of the equal-length columns t, x, y and z, iterables of
        plain ints that must hold valid samples in time order."""
        trace = cls.__new__(cls)
        trace._fill(t, x, y, z, label, None)
        return trace

    def _fill(self, t, x, y, z, label, samples) -> None:
        if label is not None and not isinstance(label, GestureKind):
            raise ValueError(
                f"trace label must be a GestureKind or None, got {type(label).__name__}"
            )
        columns = tuple(map(tuple, (t, x, y, z)))
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns t, x, y, z must be of one length, got {lengths}")
        _check_columns(*columns)
        if label is not None and not lengths[0]:
            raise ValueError("a labeled trace must be non-empty")
        for name, value in zip(("t", "x", "y", "z", "label", "_samples"), (*columns, label, samples)):
            object.__setattr__(self, name, value)

    @property
    def samples(self) -> tuple[AccelSample, ...]:
        if self._samples is None:
            views = tuple(map(_sample_view, self.t, self.x, self.y, self.z))
            object.__setattr__(self, "_samples", views)
        return self._samples

    def __len__(self):
        return len(self.t)

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
    text = path.read_text(encoding="ascii", errors="replace").rstrip("\n")
    if not text:
        return Trace((), label=label)
    header, _, body = (text + "\n").partition("\n")
    if header != TRACE_HEADER:
        raise TraceFormatError(f"{path}: missing '{TRACE_HEADER}' header line")
    trace = _read_columns(body, label)
    return trace if trace is not None else _read_rows(path, body, label)


def _read_columns(body: str, label: GestureKind | None) -> Trace | None:
    """The trace of body, its data rows each ending in \\n, read in one
    pass: one match over all rows, one int() per field, a chunk of whole
    rows at a time, then the column check. None when any of them fails;
    _read_rows then names the line."""
    if _TRACE_BODY.fullmatch(body) is None:
        return None
    values, start = [], 0
    try:
        while start < len(body):
            end = body.find("\n", start + _READ_CHUNK_CHARS) + 1 or len(body)
            values += map(int, body[start : end - 1].replace("\n", ",").split(","))
            start = end
        return Trace.from_columns(values[0::4], values[1::4], values[2::4], values[3::4], label)
    except ValueError:
        return None


def _read_rows(path: Path, body: str, label: GestureKind | None) -> Trace:
    """The trace of body, its data rows each ending in \\n, read row by row:
    the first bad row raises TraceFormatError naming its line."""
    samples = []
    prev_t = -1
    for row, line in enumerate(body.split("\n")[:-1], start=1):
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
    check_trace("trace", trace)
    path = Path(path)
    rows = [TRACE_HEADER, *map("{},{},{},{}".format, trace.t, trace.x, trace.y, trace.z)]
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
    # one sample's x, y and z draws, then the next sample's
    draws = [rng.randint(*r) for _ in range(n) for r in (rx, ry, rz)]
    t = range(0, n * SAMPLE_PERIOD_MS, SAMPLE_PERIOD_MS)
    return Trace.from_columns(t, draws[0::3], draws[1::3], draws[2::3], label=kind)
