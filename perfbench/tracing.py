"""Span tracer that times wristlink's layers from outside the program.

`Tracer.installed()` replaces each public function at the name its caller
looks up (a module global or a class attribute) with a wrapper that records
one span: layer name, start, end, parent span and item id. The item id is
the index of the trace sample being processed (taken from the time the
pipeline advances the link to) or, for a BER sweep, the sweep point. Spans
live in arrays until the run ends; self time is a span's duration minus the
durations of its direct children. The wrappers also keep the bits sent to
and returned by the modem, so bit errors are counted at that boundary.

The wrappers' own bookkeeping runs inside the parent span, so parent self
times carry it; `trace.overhead_ratio` in bench.py states its size.
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

from workloads import SAMPLE_PERIOD_MS

FRAME_BITS = 48

# (owner attribute path in wristlink, attribute, layer span name)
PATCH_POINTS = (
    ("controller", "serialize", "framing.serialize"),
    ("controller", "deserialize", "framing.deserialize"),
    ("controller", "modulate", "modem.modulate"),
    ("controller", "channel_apply", "modem.channel_apply"),
    ("controller", "demodulate", "modem.demodulate"),
    ("controller", "classify_window", "classify.classify_window"),
    ("modem", "modulate", "modem.modulate"),
    ("modem", "channel_apply", "modem.channel_apply"),
    ("modem", "demodulate", "modem.demodulate"),
    ("link.LinkSimulator", "transmit_sample", "link.transmit_sample"),
    ("link.LinkSimulator", "run_until", "link.run_until"),
    ("classify.Debouncer", "push", "classify.debounce_push"),
    ("controller.HomeController", "apply_action", "controller.apply_action"),
    ("cli", "run_pipeline", "controller.run_pipeline"),
    ("cli", "load_trace", "sensor.load_trace"),
    ("cli", "measure_ber", "modem.measure_ber"),
)
ROOT_SPAN = "cli.main"

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "sensor.load_trace_us_per_row": "us",
    "framing.serialize_us": "us",
    "framing.deserialize_us": "us",
    "framing.decode_ok_ratio": "ratio",
    "framing.crc_escapes": "count",
    "modem.modulate_us": "us",
    "modem.channel_apply_us": "us",
    "modem.demodulate_us": "us",
    "modem.bit_errors_per_frame": "bits/frame",
    "modem.measure_ber_s": "s",
    "link.transmit_us": "us",
    "link.run_until_us": "us",
    "link.delivered_ratio": "ratio",
    "classify.classify_window_us": "us",
    "classify.debounce_push_us": "us",
    "classify.windows": "count",
    "controller.self_us_per_sample": "us",
    "controller.apply_action_us": "us",
    "cli.self_s": "s",
    "gesture_hit_rate": "ratio",
    "actuation_ms_p50": "ms",
    "actuation_n": "count",
    "trace.overhead_ratio": "ratio",
}


def _resolve(wristlink_modules: dict, path: str):
    module, _, cls = path.partition(".")
    owner = wristlink_modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self._stack: list[int] = []
        self._item = 0
        self._ber_points = 0
        self._last_bits = None
        self.bit_pairs: list[tuple[object, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped so that each call records one span."""
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, item, stack = self.parent, self.item, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            span_name.append(code)
            parent.append(stack[-1] if stack else -1)
            item.append(self._item)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def begin_rep(self) -> None:
        """Restart item numbering for the next traced repetition."""
        self._item = 0
        self._ber_points = 0

    # hooks that keep item ids and modem bits at the layer boundaries
    def _on_run_until(self, args):
        self._item = args[1] // SAMPLE_PERIOD_MS

    def _on_measure_ber(self, args):
        self._item = self._ber_points
        self._ber_points += 1

    def _on_modulate(self, args):
        self._last_bits = args[0]

    def _on_demodulate(self, result):
        self.bit_pairs.append((self._last_bits, result))

    @contextlib.contextmanager
    def installed(self, wristlink_modules: dict):
        """Patch every point in PATCH_POINTS for the duration of the block."""
        hooks = {
            "link.run_until": (self._on_run_until, None),
            "modem.measure_ber": (self._on_measure_ber, None),
            "modem.modulate": (self._on_modulate, None),
            "modem.demodulate": (None, self._on_demodulate),
        }
        saved = []
        try:
            for owner_path, attr, name in PATCH_POINTS:
                owner = _resolve(wristlink_modules, owner_path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                before, after = hooks.get(name, (None, None))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take_bit_errors(self) -> tuple[int, int]:
        """(bit errors, bits compared) over the modem calls since the last take."""
        import numpy as np

        errors = bits = 0
        for sent, received in self.bit_pairs:
            sent, received = np.asarray(sent), np.asarray(received)
            errors += int(np.count_nonzero(sent != received))
            bits += sent.size
        self.bit_pairs.clear()
        return errors, bits

    def layer_totals(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, self ns, inclusive ns) over all spans recorded."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = defaultdict(lambda: [0, 0, 0])
        for i in range(n):
            t = totals[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            t[0] += 1
            t[1] += dur - child[i]
            t[2] += dur
        return {k: tuple(v) for k, v in totals.items()}

    def write(self, path) -> None:
        """Write every recorded span as CSV (times in ns from the first span)."""
        t0 = self.start[0] if len(self.start) else 0
        rows = ["span,name,start_ns,end_ns,parent,item"]
        rows.extend(
            f"{i},{self.names[self.span_name[i]]},{self.start[i] - t0},"
            f"{self.end[i] - t0},{self.parent[i]},{self.item[i]}"
            for i in range(len(self.start))
        )
        with open(path, "w", encoding="ascii") as f:
            f.write("\n".join(rows) + "\n")


def layer_metrics(
    totals: dict[str, tuple[int, int, int]],
    reps: int,
    rows_per_rep: int,
    bit_errors: int,
    bits_compared: int,
) -> dict[str, float]:
    """Per-layer timings from span totals over `reps` traced repetitions.

    Per-call figures are self time over calls; a layer the workload never
    calls reads 0.
    """

    def per_call_us(name):
        calls, self_ns, _ = totals.get(name, (0, 0, 0))
        return self_ns / calls / 1e3 if calls else 0.0

    def self_ns(name):
        return totals.get(name, (0, 0, 0))[1]

    def per_row_us(name):
        rows = reps * rows_per_rep
        return self_ns(name) / rows / 1e3 if rows else 0.0

    ber_calls, _, ber_ns = totals.get("modem.measure_ber", (0, 0, 0))
    return {
        "sensor.load_trace_us_per_row": per_row_us("sensor.load_trace"),
        "framing.serialize_us": per_call_us("framing.serialize"),
        "framing.deserialize_us": per_call_us("framing.deserialize"),
        "modem.modulate_us": per_call_us("modem.modulate"),
        "modem.channel_apply_us": per_call_us("modem.channel_apply"),
        "modem.demodulate_us": per_call_us("modem.demodulate"),
        "modem.bit_errors_per_frame": (
            bit_errors / (bits_compared / FRAME_BITS) if bits_compared else 0.0
        ),
        "modem.measure_ber_s": ber_ns / ber_calls / 1e9 if ber_calls else 0.0,
        "link.transmit_us": per_call_us("link.transmit_sample"),
        "link.run_until_us": per_call_us("link.run_until"),
        "classify.classify_window_us": per_call_us("classify.classify_window"),
        "classify.debounce_push_us": per_call_us("classify.debounce_push"),
        "controller.self_us_per_sample": per_row_us("controller.run_pipeline"),
        "controller.apply_action_us": per_call_us("controller.apply_action"),
        "cli.self_s": self_ns(ROOT_SPAN) / reps / 1e9,
    }
