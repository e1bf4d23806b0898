"""Wearable accelerometer model: timestamped 3-axis raw-count sample streams.

Samples carry 10-bit ADC counts (0..1023) at a default 50 Hz rate. A Trace
holds its samples as four read-only int64 arrays (t, x, y, z); an
AccelSample is one row, of plain ints. The row rule (times in 0..TIME_MAX
and rising, counts in 0..1023) is one int64 check of the four columns as
one block, which every Trace constructor and load_trace run and which
names the first bad row with the error AccelSample or the time order
gives. Traces round-trip through a plain CSV format of fields of 1 to 18
digits, which load_trace reads in one pass over the whole file: one
grammar match and one NumPy parse into an int64 block of the rows before
the first line that breaks it, then the row check; the first bad line is
named. The check_* functions are the library's value rules,
check_int_array the one for NumPy integer columns; read_json_object reads
every JSON document, _write_lines writes every output file as ASCII lines,
and _view_builder makes every unchecked view of checked values (a Trace's
samples, framing's frames). A seeded generator synthesizes the three wrist
gestures the classifier distinguishes, with per-axis statistics matched to
the reference captures below, each count the value Random.randint gives,
drawn from getrandbits words.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter
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
# 1 to 1,024 data rows, each ending in \n, that keep the grammar: four
# fields of 1 to 18 decimal digits, no sign, space or "_" (NumPy's parse
# would take those). A field below 10**18 parses exactly as an int64,
# whatever int()'s digit limit, and save_trace writes no wider one. The
# good prefix of a body is matched a chunk at a time, as the regex engine
# keeps backtracking state for every row a repeat has taken: an unbounded
# one holds about 17 times the file
_TRACE_ROWS = re.compile(r"(?:[0-9]{1,18},[0-9]{1,18},[0-9]{1,18},[0-9]{1,18}\n){1,1024}")
# the most characters of a refused text that its error quotes (see quoted)
_QUOTED_CHARS = 80
# the most digits of an integer in a JSON document or a number flag: int()
# reads that many under any digit limit (sys.int_info's
# str_digits_check_threshold), so no input's reading depends on that limit
INT_DIGITS_MAX = 640
# lines per write of _write_lines: ~100 KiB of a simulation log
_LINES_PER_WRITE = 1024

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


def quoted(text: str, noun: str) -> str:
    """How an error quotes a text it refuses: its repr, whole up to
    _QUOTED_CHARS characters, or else that of its first _QUOTED_CHARS and
    its length, as "(noun of N characters)", noun with its article."""
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({noun} of {len(text)} characters)"


def shown(value) -> str:
    """How an error shows a value it refuses: its repr, whole up to
    _QUOTED_CHARS characters, or else the first _QUOTED_CHARS characters of
    it and its length, as "(a value of N characters)"."""
    text = repr(value)
    if len(text) <= _QUOTED_CHARS:
        return text
    return f"{text[:_QUOTED_CHARS]}... (a value of {len(text)} characters)"


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ValueError naming the parameter and the value unless value is a
    plain int in lo..hi, an end given as None being open. This is the one
    integer rule: a bool, a float or a NumPy integer never passes."""
    if type(value) is not int or (lo is not None and value < lo) or (hi is not None and value > hi):
        if lo is None:
            span = "" if hi is None else f" <= {hi}"
        else:
            span = f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer{span}, got {shown(value)}")


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
        raise ValueError(f"{name} must be a finite number in {span}, got {shown(value)}")


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
    """Raise ValueError, naming the first bad axis, unless every axis is a
    raw count in COUNT_MIN..COUNT_MAX."""
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


def _view_builder(cls):
    """The function that makes a record of cls, a frozen dataclass of four
    slots, from its values in field order without running __post_init__:
    an unchecked view of checked values, equal to the checked record."""
    set_a, set_b, set_c, set_d = (cls.__dict__[name].__set__ for name in cls.__slots__)
    new = object.__new__

    def view(a, b, c, d):
        record = new(cls)
        set_a(record, a)
        set_b(record, b)
        set_c(record, c)
        set_d(record, d)
        return record

    return view


_sample_view = _view_builder(AccelSample)  # a row of checked columns


def _check_label(label) -> None:
    """Raise ValueError naming the type unless label is a GestureKind or None."""
    if label is not None and not isinstance(label, GestureKind):
        raise ValueError(f"trace label must be a GestureKind or None, got {type(label).__name__}")


def _row_fault(columns: np.ndarray) -> tuple[int, str] | None:
    """The first row of a (4, n) int64 block of columns t, x, y and z that
    breaks the row rule, and its error, or None: each row must make an
    AccelSample, and t strictly increase. The whole block is checked at
    once; the error is the one AccelSample, or the time order, gives."""
    t, counts = columns[0], columns[1:]
    bad = (t < 0) | (t > TIME_MAX) | ((counts < COUNT_MIN) | (counts > COUNT_MAX)).any(axis=0)
    bad[1:] |= t[1:] <= t[:-1]
    if not bad.any():
        return None
    row = int(bad.argmax())
    values = columns[:, row].tolist()
    try:
        AccelSample(*values)
    except ValueError as exc:
        return row, str(exc)
    # the row before passed, so the time order fails on this one
    return row, f"timestamps must be strictly increasing: {values[0]} after {int(t[row - 1])}"


def _int64_column(name: str, values):
    """Column `name` as a new int64 array: a copy of a 1-D integer ndarray
    (any other ndarray, or a uint64 one past int64, raises ValueError
    naming the column), or an iterable of plain ints of int64 width read
    whole. An iterable holding any other value comes back as a list, whose
    rows give the error."""
    if isinstance(values, np.ndarray):
        wide = values.dtype.kind == "u" and values.size and int(values.max()) >= 2**63
        if values.ndim != 1 or values.dtype.kind not in "iu" or wide:
            shape = f"{values.dtype} of shape {values.shape}"
            raise ValueError(f"column {name} must be a 1-D array of int64 values, got {shape}")
        return values.astype(np.int64)
    values = list(values)
    try:
        return np.array(values, np.int64) if {*map(type, values)} <= {int} else values
    except OverflowError:  # an int past int64
        return values


@dataclass(frozen=True, init=False, eq=False)
class Trace:
    """Ordered samples with an optional gesture label, held as four
    read-only int64 arrays: the times t (ms in 0..TIME_MAX, strictly
    increasing) and the raw counts x, y and z (COUNT_MIN..COUNT_MAX).

    `Trace.from_columns(t, x, y, z, label)` builds a trace from copies of
    the columns, checked as one block. `Trace(samples, label)` unpacks
    AccelSamples into the columns. `samples` holds the rows as
    AccelSamples of plain ints: the ones a trace was built from, or else
    views of the columns built on first use. Iteration, indexing and len()
    go by sample; two traces are equal when their columns and labels are.
    The label is an in-memory annotation; the CSV file format persists
    samples only.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    label: GestureKind | None
    _samples: tuple[AccelSample, ...] | None = field(repr=False)

    def __init__(self, samples, label: GestureKind | None = None):
        samples = check_samples("trace samples", samples)
        # the (4, n) block of columns, read a column at a time
        values = chain(*(map(attrgetter(axis), samples) for axis in "txyz"))
        columns = np.fromiter(values, np.int64, 4 * len(samples)).reshape(4, len(samples))
        self._fill(columns, label, samples)

    @classmethod
    def from_columns(cls, t, x, y, z, label: GestureKind | None = None) -> Trace:
        """The trace of the equal-length columns t, x, y and z, integer
        ndarrays or iterables of plain ints, that must hold valid samples
        in time order."""
        columns = [_int64_column(name, c) for name, c in zip("txyz", (t, x, y, z))]
        lengths = [len(column) for column in columns]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns t, x, y, z must be of one length, got {lengths}")
        if any(type(column) is list for column in columns):
            # a value that is no plain int of int64 width makes no
            # AccelSample; its row raises, unless a row before it does
            samples = []
            try:
                for row in zip(*(c if type(c) is list else c.tolist() for c in columns)):
                    samples.append(AccelSample(*row))
            except ValueError as exc:
                fault = exc
            cls(samples)
            raise fault
        trace = cls.__new__(cls)
        trace._fill(np.stack(columns), label, None)
        return trace

    def _fill(self, columns, label, samples) -> None:
        _check_label(label)
        fault = _row_fault(columns)
        if fault:
            raise ValueError(fault[1])
        if label is not None and not columns.shape[1]:
            raise ValueError("a labeled trace must be non-empty")
        self._set(columns, label, samples)

    def _set(self, columns, label, samples) -> None:
        """Hold columns, a new (4, n) int64 block that passed the row rule,
        as the read-only t, x, y and z."""
        columns.flags.writeable = False
        names = ("t", "x", "y", "z", "label", "_samples")
        for name, value in zip(names, (*columns, label, samples)):
            object.__setattr__(self, name, value)

    def _key(self):
        return self.label, self.t.tobytes(), self.x.tobytes(), self.y.tobytes(), self.z.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # rebuilt by from_columns, so a copy is read-only too
        return type(self).from_columns, (self.t, self.x, self.y, self.z, self.label)

    @property
    def samples(self) -> tuple[AccelSample, ...]:
        if self._samples is None:
            columns = (self.t.tolist(), self.x.tolist(), self.y.tolist(), self.z.tolist())
            object.__setattr__(self, "_samples", tuple(map(_sample_view, *columns)))
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
    grammar, as quoted() quotes it. The optional label is attached in
    memory; the file carries none, so a label other than a GestureKind or
    None raises ValueError before the file is read.
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
    end = 0
    while chunk := _TRACE_ROWS.match(body, end):
        end = chunk.end()
    # the whole rows before the first line that breaks the grammar, as a
    # (4, n) block of columns, parsed without the last row's separator
    fields = body[: max(end - 1, 0)].replace("\n", ",")
    columns = np.fromstring(fields, np.int64, sep=",").reshape(-1, 4).T.copy()
    fault = _row_fault(columns)
    if fault:
        raise TraceFormatError(f"{path}: line {fault[0] + 1}: {fault[1]}")
    if end < len(body):
        line = body[end : body.index("\n", end)]
        raise TraceFormatError(
            f"{path}: line {columns.shape[1] + 1}: "
            f"expected 4 comma-separated integers of 1 to 18 digits, got {quoted(line, 'a line')}"
        )
    # the checked block's columns, not checked again
    trace = object.__new__(Trace)
    trace._set(columns, label, None)
    return trace


def _write_lines(path, lines: list[str]) -> None:
    """Write ASCII lines to path, each ended by a newline, _LINES_PER_WRITE
    at a time, so that the text in memory at once is one chunk of them,
    never the whole file. An empty list writes one newline, as
    "\\n".join(lines) + "\\n" does. It writes every output file."""
    with open(path, "w", encoding="ascii") as f:
        for start in range(0, max(len(lines), 1), _LINES_PER_WRITE):
            f.write("\n".join(lines[start : start + _LINES_PER_WRITE]) + "\n")


def save_trace(trace: Trace, path) -> None:
    """Write a trace as CSV, a row per sample of plain ints; reloading
    reproduces the samples exactly."""
    check_type("trace", trace, Trace)
    _write_lines(path, [TRACE_HEADER, *(f"{s.t},{s.x},{s.y},{s.z}" for s in trace.samples)])


class _LongInt(str):
    """The text of a JSON integer of more than INT_DIGITS_MAX digits."""


def _json_int(text: str):
    """A JSON integer's value, or its text past INT_DIGITS_MAX digits."""
    return int(text) if len(text.lstrip("-")) <= INT_DIGITS_MAX else _LongInt(text)


def _json_object(pairs: list) -> dict:
    """A JSON object's dict of its (key, value) pairs, after a ValueError
    naming the first key that repeats an earlier one."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {quoted(key, 'a key')}")
        doc[key] = value
    return doc


def read_json_object(path, keys, required=(), encoding="UTF-8") -> dict:
    """The JSON object in the file at path, after a ValueError naming the
    fault, but not the file, unless the file decodes as `encoding`, parses
    as JSON (nested past the parser's recursion limit, it does not), holds
    an object with only keys in `keys` and every key in `required`, holds
    no object, at any depth, that repeats a key, which is named, and holds
    no integer of more than INT_DIGITS_MAX digits, which is named by its
    key. Each caller names the file in an error of its own."""
    try:
        text = Path(path).read_text(encoding=encoding)
        doc = json.loads(text, parse_int=_json_int, object_pairs_hook=_json_object)
    except UnicodeDecodeError as exc:
        raise ValueError(f"not {encoding}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise ValueError("not a JSON object")
    for key, value in doc.items():
        held = [value]
        for item in held:  # grown as it is walked, to every value nested in value
            held.extend(item.values() if type(item) is dict else item if type(item) is list else ())
            if type(item) is _LongInt:
                text = quoted(item, "an integer")
                raise ValueError(f"key {key!r}: integer of more than {INT_DIGITS_MAX} digits: {text}")
    for fault, names in ("unknown", set(doc) - set(keys)), ("missing", set(required) - set(doc)):
        if names:
            raise ValueError(f"{fault} keys: {', '.join(sorted(names))}")
    return doc


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
    # one sample's x, y and z draws, then the next sample's, each the value
    # Random.randint(lo, hi) gives, from the same words: CPython's rule takes
    # getrandbits(k), k the bit length of span = hi - lo + 1, until a value
    # below the span comes, and adds lo. Python promises a repeatable stream
    # only for random(), so tests/test_sensor.py pins this against randint.
    getrandbits = Random(seed).getrandbits
    spans = [(lo, hi - lo + 1, (hi - lo + 1).bit_length())
             for lo, hi in _GESTURE_AXIS_RANGES[kind]]
    draws = []
    for lo, span, k in spans * n:
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        draws.append(lo + r)
    x, y, z = np.array(draws, np.int64).reshape(n, 3).T
    t = np.arange(0, n * SAMPLE_PERIOD_MS, SAMPLE_PERIOD_MS, np.int64)
    return Trace.from_columns(t, x, y, z, label=kind)
