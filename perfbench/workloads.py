"""Workload definitions, seeded input generation and output checks.

Every workload is one `wristlink` command run in-process through
`wristlink.cli.main`. Inputs come only from the workload seed: the trace CSV
(stream workloads) and the program's `--seed` flag. Nothing here imports
wristlink at module level, so run.py can pin BLAS threads before numpy loads.

Run as a script, this module performs one timed set-up and prints its
duration in seconds:

    python3 perfbench/workloads.py --workload clean_stream --seed 3 --out t.csv

(run from the repository root, whose src/ holds the program).
"""
from __future__ import annotations

import argparse
import hashlib
import math
import re
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

DEFAULT_SEED = 0
SEGMENT_SAMPLES = 150  # 3 s at 50 Hz
SEGMENT_KINDS = ("vertical", "other", "horizontal", "other")
SAMPLE_PERIOD_MS = 20
WINDOW_SIZE = 16  # default CalibrationProfile window, used by the invariants
BER_Z_BOUND = 5.0
SMOKE_SEGMENTS = 8
SMOKE_BITS = 20_000

SUMMARY_FIELDS = (
    "samples,frames_sent,frames_delivered,frames_lost,frames_corrupted,"
    "fifo_dropped,windows,actions_emitted,final_state,sensor_resets"
).split(",")

_FRAME_SENT = re.compile(
    r"^\[t=(\d+)\] FRAME_SENT frame=\d+ mode=ACC x=(\d+) y=(\d+) z=(\d+)$", re.M
)
_APPLIANCE = re.compile(r"^\[t=(\d+)\] APPLIANCE \S+ -> (ON|OFF)$", re.M)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "ber"
    flags: tuple[str, ...]
    segments: int = 0  # trace segments of SEGMENT_SAMPLES each (streams)
    bits: int = 0  # bits per sweep point (ber)
    points: int = 0

    @property
    def samples(self) -> int:
        return self.segments * SEGMENT_SAMPLES

    @property
    def items(self) -> int:
        """Work per repetition: trace samples, or channel bits over the sweep."""
        return self.samples if self.command == "simulate" else self.bits * self.points

    @property
    def item_unit(self) -> str:
        return "samples" if self.command == "simulate" else "bits"

    def smoke(self) -> "Workload":
        """A small copy for the benchmark's own tests (goldens are keyed by size)."""
        if self.command == "simulate":
            return replace(self, segments=SMOKE_SEGMENTS)
        return replace(self, bits=SMOKE_BITS)

    def argv(self, seed: int, trace_path: Path | None, out_dir: Path) -> list[str]:
        args = [self.command]
        if self.command == "simulate":
            args += ["--trace", str(trace_path)]
        else:
            args += ["--points", str(self.points), "--bits", str(self.bits)]
        return args + list(self.flags) + ["--seed", str(seed), "--out", str(out_dir)]

    def output_files(self) -> tuple[str, ...]:
        if self.command == "simulate":
            return ("simulation.log", "summary.csv")
        return ("ber.csv",)

    def golden_key(self) -> str:
        return f"{self.name}:{self.items}"


# Why each workload exists is in README.md and BENCHMARK.json. 68 segments
# are 17 cycles of vertical/idle/horizontal/idle = 10,200 samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clean_stream",
            "simulate",
            ("--noise", "0", "--loss", "0"),
            segments=68,
        ),
        Workload(
            "noisy_lossy_stream",
            "simulate",
            ("--noise", "1.0", "--loss", "0.2"),
            segments=68,
        ),
        Workload(
            "ber_sweep",
            "ber",
            ("--sigma-min", "0.6", "--sigma-max", "2.0"),
            bits=200_000,
            points=5,
        ),
    )
}


def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"perfbench:{tag}:{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def segment_plan(workload: Workload) -> list[tuple[str, int, int]]:
    """(kind, start_ms, end_ms) of each generated segment, in trace order."""
    span = SEGMENT_SAMPLES * SAMPLE_PERIOD_MS
    return [
        (SEGMENT_KINDS[k % len(SEGMENT_KINDS)], k * span, (k + 1) * span)
        for k in range(workload.segments)
    ]


def write_trace(workload: Workload, seed: int, path: Path) -> None:
    """Generate the workload's mixed gesture trace and save it as CSV.

    Each segment comes from `generate_gesture` with its own derived seed and
    is shifted to follow the previous one.
    """
    from wristlink import Trace, generate_gesture, save_trace

    samples = []
    for k, (kind, start_ms, _) in enumerate(segment_plan(workload)):
        seg = generate_gesture(kind, SEGMENT_SAMPLES, derive_seed(seed, f"segment{k}"))
        samples.extend(replace(s, t=start_ms + s.t) for s in seg)
    save_trace(Trace(tuple(samples)), path)


def set_up(workload: Workload, seed: int, path: Path) -> float:
    """Import wristlink and, for a stream, write its trace. Returns seconds.

    Meant to run in a fresh interpreter, so the import cost is real.
    """
    t0 = time.perf_counter()
    import wristlink  # noqa: F401

    if workload.command == "simulate":
        write_trace(workload, seed, path)
    return time.perf_counter() - t0


def read_trace_rows(path: Path) -> dict[int, tuple[int, int, int]]:
    """Plain parse of the generated CSV: t_ms -> (x, y, z)."""
    rows = {}
    for line in path.read_text(encoding="ascii").splitlines()[1:]:
        t, x, y, z = (int(v) for v in line.split(","))
        rows[t] = (x, y, z)
    return rows


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode("ascii") + b"\0" + data + b"\0")
    return h.hexdigest()


def parse_summary(data: bytes) -> dict[str, str]:
    header, row = data.decode("ascii").splitlines()
    if header.split(",") != SUMMARY_FIELDS:
        raise ValueError(f"unexpected summary header {header!r}")
    return dict(zip(SUMMARY_FIELDS, row.split(",")))


def bfsk_ber(sigma: float) -> float:
    """Noncoherent orthogonal BFSK bit error rate at the modem defaults
    (unit amplitude, 16 samples per bit): 1/2 exp(-Eb/2N0) = 1/2 exp(-2/sigma^2)."""
    return 0.5 * math.exp(-2.0 / sigma**2)


def check_outputs(workload: Workload, files: dict[str, bytes]) -> list[str]:
    """Invariants that hold for any seed; returns the violations found."""
    errors = []
    if workload.command == "simulate":
        summary = parse_summary(files["summary.csv"])
        n = {k: int(v) for k, v in summary.items() if k != "final_state"}
        if n["samples"] != workload.samples:
            errors.append(f"samples {n['samples']} != {workload.samples}")
        if n["frames_sent"] + n["frames_corrupted"] != n["samples"]:
            errors.append("frames_sent + frames_corrupted != samples")
        if n["frames_delivered"] + n["frames_lost"] != n["frames_sent"]:
            errors.append("frames_delivered + frames_lost != frames_sent")
        if n["windows"] != max(0, n["frames_delivered"] - WINDOW_SIZE + 1):
            errors.append("windows != max(0, delivered - window_size + 1)")
        return errors
    lines = files["ber.csv"].decode("ascii").splitlines()
    if lines[0] != "noise_sigma,ber" or len(lines) != workload.points + 1:
        return [f"unexpected ber.csv layout: {lines[:2]}"]
    for line in lines[1:]:
        sigma, rate = (float(v) for v in line.split(","))
        p = bfsk_ber(sigma)
        z = (rate - p) / math.sqrt(p * (1 - p) / workload.bits)
        if abs(z) > BER_Z_BOUND:
            errors.append(f"ber {rate} at sigma {sigma}: z={z:.2f} against {p:.6g}")
    return errors


# What simulated_metrics reports when nothing was simulated (the BER sweep).
NO_SIMULATION = {
    "framing.decode_ok_ratio": 0.0,
    "framing.crc_escapes": 0,
    "link.delivered_ratio": 0.0,
    "classify.windows": 0,
    "gesture_hit_rate": 0.0,
    "actuation_ms_p50": 0.0,
    "actuation_n": 0,
    "gesture_segments": 0,
}


def simulated_metrics(
    workload: Workload, files: dict[str, bytes], trace_path: Path | None
) -> dict[str, float]:
    """Simulated outcomes computed from the outputs and the generated inputs.

    These repeat exactly for a given seed; a change that only speeds up the
    simulator must leave them as they are.
    """
    if workload.command != "simulate":
        return dict(NO_SIMULATION)
    n = parse_summary(files["summary.csv"])
    samples, sent = int(n["samples"]), int(n["frames_sent"])
    log = files["simulation.log"].decode("ascii")

    sent_rows = read_trace_rows(trace_path)
    escapes = sum(
        1
        for t, x, y, z in _FRAME_SENT.findall(log)
        if sent_rows[int(t)] != (int(x), int(y), int(z))
    )

    transitions = [(int(t), state) for t, state in _APPLIANCE.findall(log)]
    delays = []
    gestures = 0
    for kind, start, end in segment_plan(workload):
        want = {"vertical": "ON", "horizontal": "OFF"}.get(kind)
        if want is None:
            continue
        gestures += 1
        hit = next(
            (t for t, state in transitions if start <= t < end and state == want), None
        )
        if hit is not None:
            delays.append(hit - start)
    return {
        "framing.decode_ok_ratio": sent / samples,
        "framing.crc_escapes": escapes,
        "link.delivered_ratio": int(n["frames_delivered"]) / sent if sent else 0.0,
        "classify.windows": int(n["windows"]),
        "gesture_hit_rate": len(delays) / gestures,
        "actuation_ms_p50": float(statistics.median(delays)) if delays else 0.0,
        "actuation_n": len(delays),
        "gesture_segments": gestures,
    }


def _main() -> int:
    parser = argparse.ArgumentParser(description="one timed benchmark set-up")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--segments", type=int, help="trace length override (tests)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.segments is not None:
        workload = replace(workload, segments=args.segments)
    sys.path.insert(0, str(SRC_DIR))
    print(repr(set_up(workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
