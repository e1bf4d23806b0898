"""Wearable accelerometer model: timestamped 3-axis raw-count sample streams.

Samples carry 10-bit ADC counts (0..1023) at a default 50 Hz rate. A Trace
holds its samples as four columns of plain ints (t, x, y, z), checked once
as columns; an AccelSample is one row. Traces round-trip through a plain
CSV format of fields of 1 to 18 digits, which load_trace reads in one
pass over the whole file: one grammar match, one NumPy parse into an
int64 block of the rows before the first line that breaks it, and one
mask of the rows out of range or out of order; the first bad line is
named, a bad row with the column check's error. The check_* functions
are the library's value rules, check_int_array the one for NumPy integer
columns. A seeded generator synthesizes the three wrist gestures the
classifier distinguishes, with per-axis statistics matched to the
reference captures below.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from operator import lt
from pathlib import Path
from random import Random

import numpy as np

COUNT_MIN = 0
COUNT_MAX = 1023  # 10-bit ADC
SAMPLE_PERIOD_MS = 20  # 50 Hz
# the latest time, in int ms (about 285,000 years), that a run can log: every
# time fits an int64 column, and a JSON reader holds it exactly (RFC 8259,
# section 6)
TIME_MAX = 2**53 - 1

TRACE_HEADER = "t_ms,x,y,z"
# the data rows after the header, each ending in \n, as far as they keep
# the grammar: four fields of 1 to 18 decimal digits, no sign, space or "_"
# (NumPy's parse would take those). A field below 10**18 parses exactly as
# an int64, whatever int()'s digit limit, and save_trace writes no wider one
_TRACE_ROWS = re.compile(r"(?:[0-9]{1,18},[0-9]{1,18},[0-9]{1,18},[0-9]{1,18}\n)*")
# the most characters of a line that breaks the grammar that its error
# quotes; a longer line is quoted up to there, and its length given
_QUOTED_CHARS = 80

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


def check_number(name: str, value, lo: float, hi: float | None = None, above: bool = False) -> None:
    """Raise ValueError naming the field and the value unless value is a
    finite int or float (float subclasses such as np.float64 included) in
    lo..hi, or above lo when `above`, hi None being open. This is the one
    number rule of the config floats: a bool, a NumPy bool, a string, None,
    a NaN or an infinity never passes."""
    top = sys.float_info.max if hi is None else hi
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and (lo < value if above else lo <= value) and value <= top):
        span = f"{'(' if above else '['}{lo}, {'inf)' if hi is None else f'{hi}]'}"
        raise ValueError(f"{name} must be a finite number in {span}, got {value!r}")


def check_type(name: str, value, cls):
    """value, after raising ValueError naming the parameter and the type
    unless it is a cls. This is the one type rule of typed parameters."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def check_rows(name: str, values, dtype=None) -> np.ndarray:
    """values as an array holding one row (1-D) or a block of rows (2-D),
    an iterable other than an array being read whole first, and cast to
    dtype (float) when given. This is the one rank rule of the radio path:
    any other rank, or given a dtype a non-real one (complex, string,
    object), raises ValueError naming the parameter and the shape or dtype."""
    if not isinstance(values, np.ndarray) and np.iterable(values):
        values = list(values)
    rows = np.asarray(values)
    if dtype is not None and rows.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {rows.dtype}")
    rows = np.asarray(rows, dtype=dtype)
    if rows.ndim not in (1, 2):
        raise ValueError(f"{name} must be a 1-D row or a 2-D block, got shape {rows.shape}")
    return rows


def check_int_array(name: str, values, hi: int) -> np.ndarray:
    """values as an array, after raising ValueError naming the column and
    its first bad entry unless it has an integer dtype (not bool, float or
    object) and every entry lies in 0..hi; an empty one of any dtype passes,
    as int64. This is the one integer rule of NumPy columns."""
    column = np.asarray(values)
    if not column.size:
        return column.astype(np.int64)
    if column.dtype.kind not in "iu":
        raise ValueError(f"{name} must have an integer dtype, got {column.dtype} {column.flat[0]}")
    bad = column[(column < 0) | (column > hi)]
    if bad.size:
        raise ValueError(f"{name} must lie in 0..{hi}, got {bad[0]}")
    return column


def check_counts(x: int, y: int, z: int) -> None:
    """Raise ValueError unless every axis is a raw count in COUNT_MIN..COUNT_MAX.

    The test is one predicate over all three; check_int, run on each axis in
    turn only when it fails, names the first bad one."""
    if (
        type(x) is type(y) is type(z) is int
        and COUNT_MIN <= x <= COUNT_MAX
        and COUNT_MIN <= y <= COUNT_MAX
        and COUNT_MIN <= z <= COUNT_MAX
    ):
        return
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
    """One timestamped 3-axis reading in raw counts; t is an int in
    0..TIME_MAX (ms)."""

    t: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        check_int("t", self.t, 0, TIME_MAX)
        check_counts(self.x, self.y, self.z)


def check_samples(name: str, samples) -> tuple[AccelSample, ...]:
    """samples as a tuple, after raising ValueError naming the parameter and
    the type of the first item that is not an AccelSample, in check_type's
    words."""
    samples = tuple(samples)
    for s in samples:
        if not isinstance(s, AccelSample):
            check_type(f"{name} item", s, AccelSample)
    return samples


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


def _check_label(label) -> None:
    """Raise ValueError naming the type unless label is a GestureKind or None."""
    if label is not None and not isinstance(label, GestureKind):
        raise ValueError(f"trace label must be a GestureKind or None, got {type(label).__name__}")


def _check_columns(t, x, y, z) -> None:
    """Raise ValueError unless each row (t, x, y, z) of the equal-length
    columns passes AccelSample's checks and t is strictly increasing. The
    whole columns are checked at once; only on failure does a loop over
    the rows find the first bad value, with the error AccelSample or the
    time order gives for it."""
    if t and not (
        {*map(type, t), *map(type, x), *map(type, y), *map(type, z)} == {int}
        and t[0] >= 0
        and t[-1] <= TIME_MAX
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
    of plain ints: the times t (ms in 0..TIME_MAX, strictly increasing) and
    the raw counts x, y and z (COUNT_MIN..COUNT_MAX).

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
        _check_label(label)
        columns = tuple(map(tuple, (t, x, y, z)))
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns t, x, y, z must be of one length, got {lengths}")
        _check_columns(*columns)
        if label is not None and not lengths[0]:
            raise ValueError("a labeled trace must be non-empty")
        self._set(*columns, label, samples)

    def _set(self, t, x, y, z, label, samples) -> None:
        names = ("t", "x", "y", "z", "label", "_samples")
        for name, value in zip(names, (t, x, y, z, label, samples)):
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

    Each field is 1 to 18 ASCII decimal digits. An empty file, or a header
    alone, yields an empty trace; given a label, it raises TraceFormatError
    naming the file instead. Empty lines at the end of the file are
    ignored; any other line, whitespace-only ones included, must be a data
    row. The first bad row raises TraceFormatError naming it by its 1-based
    line number: a row with a bad value or time, with the error
    Trace.from_columns gives for it, or else the first line that breaks the
    grammar, quoted whole up to _QUOTED_CHARS characters and, if longer, up
    to there with its length. The optional label is attached in memory; the
    file carries none, so a label other than a GestureKind or None raises
    ValueError before the file is read.
    """
    _check_label(label)
    path = Path(path)
    # a non-ASCII byte decodes to U+FFFD, which no row or header matches;
    # read_text has turned \r\n and \r into \n, and splitting on \n alone
    # keeps a form feed or other line-like control character inside its row
    text = path.read_text(encoding="ascii", errors="replace").rstrip("\n")
    header, _, body = (text + "\n").partition("\n")
    if text and header != TRACE_HEADER:
        raise TraceFormatError(f"{path}: missing '{TRACE_HEADER}' header line")
    if not body:
        # an empty file or a header alone holds no sample, which a label refuses
        if label is not None:
            raise TraceFormatError(f"{path}: a labeled trace must be non-empty")
        return Trace(())
    end = _TRACE_ROWS.match(body).end()
    # the whole rows before the first line that breaks the grammar, as an
    # (n, 4) block, parsed without the last row's separator
    fields = body[: max(end - 1, 0)].replace("\n", ",")
    block = np.fromstring(fields, np.int64, sep=",").reshape(-1, 4)
    t = block[:, 0]
    bad = (t > TIME_MAX) | (block[:, 1:] > COUNT_MAX).any(axis=1)
    bad[1:] |= t[1:] <= t[:-1]
    if bad.any():
        row = int(bad.argmax())
        # the row before passed, so the check of the two fails on this one
        try:
            _check_columns(*block[max(row - 1, 0) : row + 1].T.tolist())
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {row + 1}: {exc}") from None
    if end < len(body):
        line = body[end : body.index("\n", end)]
        got = repr(line)
        if len(line) > _QUOTED_CHARS:
            got = f"{line[:_QUOTED_CHARS]!r}... (a line of {len(line)} characters)"
        raise TraceFormatError(
            f"{path}: line {len(block) + 1}: "
            f"expected 4 comma-separated integers of 1 to 18 digits, got {got}"
        )
    # the checked block's columns as plain ints, not checked again
    trace = object.__new__(Trace)
    trace._set(*map(tuple, block.T.tolist()), label, None)
    return trace


def save_trace(trace: Trace, path) -> None:
    """Write a trace as CSV; reloading reproduces the samples exactly."""
    check_type("trace", trace, Trace)
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
