"""wristlink benchmark: run one seeded workload and report its metrics.

Run from the repository root, which must hold the program under src/:

    python3 perfbench/bench.py --workload clean_stream --seed 1 --seconds 30 --trace 0

With --trace 0 the run reports the end-to-end metrics, its times scaled by
a reference job (reference.py); with --trace 1 it alternates untraced and
traced repetitions and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report and the run environment. See perfbench/README.md for
the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import workloads as wl
from tracing import PER_LAYER_UNITS, ROOT_SPAN, Tracer, layer_metrics

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"items_per_s_norm": "items/s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUPS = 5  # set-ups per untraced run; setup_s is their median
MIN_REPS = 3  # timed repetitions per run, however short --seconds is
WORK_DIR = wl.REPO_ROOT / ".bench_work"
GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")
WRISTLINK_MODULES = ("cli", "classify", "controller", "link", "modem")


@dataclass
class Rep:
    seconds: float
    files: dict[str, bytes] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return wl.digest(self.files)


def git_sha(root: Path) -> str:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(wl.REPO_ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "workload_seed": seed,
    }


def timed_setups(workload: wl.Workload, seed: int, work: Path, count: int, refs: list):
    """Run `count` set-ups, each in a fresh interpreter; return (seconds, trace).

    Every set-up must write the same trace bytes. The reference job runs
    before each set-up and after the last; its times go to `refs`.
    """
    script = Path(wl.__file__).resolve()
    seconds, traces = [], []
    for k in range(count):
        refs.append(reference.seconds())
        path = work / f"setup{k}.csv"
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", workload.name,
             "--seed", str(seed), "--out", str(path),
             "--segments", str(workload.segments)],
            capture_output=True, text=True, timeout=120, cwd=wl.REPO_ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
        if workload.command == "simulate":
            traces.append(path.read_bytes())
    refs.append(reference.seconds())
    if traces and any(t != traces[0] for t in traces):
        raise RuntimeError("set-ups with the same seed wrote different traces")
    trace_path = work / "trace.csv" if traces else None
    if trace_path is not None:
        trace_path.write_bytes(traces[0])
    for k in range(count):
        (work / f"setup{k}.csv").unlink(missing_ok=True)
    return seconds, trace_path


def run_once(workload, main, seed, trace_path, out_dir) -> Rep:
    """One closed-loop repetition: call the CLI in-process and read its outputs."""
    for name in workload.output_files():
        (out_dir / name).unlink(missing_ok=True)
    gc.collect()
    sink = io.StringIO()
    argv = workload.argv(seed, trace_path, out_dir)
    code, error = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a repetition that raises is a failed operation
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    rep = Rep(seconds)
    if error is not None:
        rep.errors.append(f"raised:\n{error}")
    elif code != 0:
        rep.errors.append(f"exit code {code}: {sink.getvalue()[-500:]}")
    else:
        try:
            rep.files = {n: (out_dir / n).read_bytes() for n in workload.output_files()}
            rep.errors.extend(wl.check_outputs(workload, rep.files))
        except (OSError, ValueError, KeyError) as exc:
            rep.errors.append(f"unreadable output: {exc!r}")
    return rep


def work_dir(workload: wl.Workload) -> Path:
    return WORK_DIR / workload.golden_key().replace(":", "-")


def import_program():
    """Import wristlink from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(wl.SRC_DIR))
    pkg = importlib.import_module("wristlink")
    if wl.SRC_DIR.resolve() not in Path(pkg.__file__).resolve().parents:
        raise RuntimeError(f"imported wristlink from {pkg.__file__}, not {wl.SRC_DIR}")
    return {m: importlib.import_module(f"wristlink.{m}") for m in WRISTLINK_MODULES}


class Operations:
    """Attempted and failed operations, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{what}: " + "; ".join(errors))


def check_golden(workload, main, trace_path, work, out_dir) -> list[str]:
    """Run the default seed once and compare its digest with golden.json."""
    if trace_path is not None:
        trace_path = work / "golden_trace.csv"
        wl.write_trace(workload, wl.DEFAULT_SEED, trace_path)
    rep = run_once(workload, main, wl.DEFAULT_SEED, trace_path, out_dir)
    want = json.loads(GOLDEN_PATH.read_text()).get(workload.golden_key())
    if want is None:
        rep.errors.append(f"no golden digest recorded for {workload.golden_key()}")
    elif not rep.errors and rep.digest != want:
        rep.errors.append(f"default-seed digest {rep.digest} != golden {want}")
    return rep.errors


def run_benchmark(
    workload: wl.Workload, seed: int, seconds: float, trace: bool, setups: int = SETUPS
):
    """Run one workload; return (result, report lines, environment, raw times).

    Raw times are the untraced repetitions' and set-ups' seconds, each list
    with the reference job's seconds before, between and after them.
    """
    work = work_dir(workload)
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_refs, refs = [], []
    setup_seconds, trace_path = timed_setups(
        workload, seed, work, 1 if trace else setups, setup_refs
    )
    modules = import_program()
    main = modules["cli"].main
    ops = Operations()
    # the golden run also warms the process up before timing starts
    ops.add("golden", check_golden(workload, main, trace_path, work, out_dir))

    tracer = Tracer()
    timed, traced = [], []
    first = None  # the first repetition that passed its checks
    bit_errors = bits_compared = 0
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_REPS or time.perf_counter() < deadline:
        refs.append(reference.seconds())
        rep = run_once(workload, main, seed, trace_path, out_dir)
        if first is None and not rep.errors:
            first = rep
        elif first is not None and not rep.errors and rep.digest != first.digest:
            rep.errors.append("output differs from an earlier repetition, same seed")
        ops.add("repetition", rep.errors)
        timed.append(rep.seconds)
        if not trace:
            continue
        tracer.begin_rep()
        with tracer.installed(modules):
            rep = run_once(workload, tracer.wrap(ROOT_SPAN, main), seed, trace_path, out_dir)
        if first is not None and not rep.errors and rep.digest != first.digest:
            rep.errors.append("traced output differs from untraced output")
        ops.add("traced repetition", rep.errors)
        errors, bits = tracer.take_bit_errors()
        bit_errors, bits_compared = bit_errors + errors, bits_compared + bits
        traced.append(rep.seconds)
    refs.append(reference.seconds())

    sim = dict(wl.NO_SIMULATION)
    if first is not None:
        sim = wl.simulated_metrics(workload, first.files, trace_path)
    if trace:
        values = layer_metrics(
            tracer.layer_totals(), len(traced), workload.samples, bit_errors, bits_compared
        )
        values.update({k: v for k, v in sim.items() if k in PER_LAYER_UNITS})
        # each traced repetition runs right after an untraced one; pairing
        # them keeps the box's drift out of the ratio
        values["trace.overhead_ratio"] = (
            statistics.median(t / u for t, u in zip(traced, timed)) - 1
        )
        units = PER_LAYER_UNITS
        tracer.write(work / "spans.csv")
    else:
        values = {
            "items_per_s_norm": (
                workload.items / statistics.median(reference.normalized(timed, refs))
            ),
            "setup_s": statistics.median(reference.normalized(setup_seconds, setup_refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    report = describe(
        workload, seed, trace, timed, traced, setup_seconds, setup_refs + refs, sim
    )
    report.extend(f"  failure {m}" for m in ops.messages)
    raw = {
        "repetition_s": timed,
        "reference_s": refs,
        "setup_s": setup_seconds,
        "setup_reference_s": setup_refs,
    }
    return result, report, environment(seed), raw


def describe(workload, seed, trace, timed, traced, setup_seconds, refs, sim) -> list[str]:
    """The readable report in raw host time, naming each metric the way
    users ask for it."""
    rep_median = statistics.median(timed)
    per_s = workload.items / rep_median
    lines = [
        f"perfbench workload={workload.name} seed={seed} trace={int(trace)}"
        f" repetitions={len(timed)} (+{len(traced)} traced)",
        f"  {workload.items} {workload.item_unit} per repetition; rep time median"
        f" {rep_median:.4f} s, min {min(timed):.4f} s, max {max(timed):.4f} s",
        f"  reference job median {statistics.median(refs):.4f} s over {len(refs)} runs"
        f" (nominal {reference.NOMINAL_S} s)",
    ]
    if workload.command == "simulate":
        lines.append(f"  samples_per_s {per_s:.1f} samples/s (raw host time)")
        lines.append("  ber_bits_per_s n/a (stream workload)")
    else:
        lines.append("  samples_per_s n/a (BER workload)")
        lines.append(f"  ber_bits_per_s {per_s:.1f} bits/s (raw host time)")
    if not trace:
        lines.append(
            f"  setup_s {statistics.median(setup_seconds):.4f} s raw (median of"
            f" {len(setup_seconds)} set-ups, each in a fresh interpreter)"
        )
    if workload.command == "simulate":
        lines.append(
            f"  gesture_hit_rate {sim['gesture_hit_rate']:.4f} ratio (simulated;"
            f" {sim['gesture_segments']} gesture segments)"
        )
        lines.append(
            f"  actuation_ms_p50 {sim['actuation_ms_p50']:g} ms (simulated;"
            f" n={sim['actuation_n']})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (wl.SRC_DIR / "wristlink" / "__init__.py").is_file():
        print(f"error: no program at {wl.SRC_DIR / 'wristlink'}", file=sys.stderr)
        return 2
    # One BLAS thread: the box is small and shared, and the workloads are a
    # single closed-loop caller. Must be set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

    workload = wl.WORKLOADS[args.workload]
    try:
        result, report, env, raw = run_benchmark(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    except (RuntimeError, OSError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"environment": env, "result": result, "report": report, "raw": raw}
    (work_dir(workload) / f"result_trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print("\n".join(report))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
