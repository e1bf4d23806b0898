"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import reference
import workloads as wl
from tracing import PER_LAYER_UNITS, ROOT_SPAN, Tracer

for _var in bench.BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

SPEC = json.loads((wl.REPO_ROOT / "BENCHMARK.json").read_text())
SMOKE_SEED = 5


def _spec_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert _spec_units("end_to_end") == bench.END_TO_END_UNITS
    assert _spec_units("per_layer") == PER_LAYER_UNITS
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_smoke_run_reports_every_metric_and_passes_checks(name, trace):
    workload = wl.WORKLOADS[name].smoke()
    result, report, env, _ = bench.run_benchmark(workload, SMOKE_SEED, 0, trace, setups=1)
    assert result["correct"], report
    assert result["failed"] == 0
    assert result["attempted"] == 1 + bench.MIN_REPS * (2 if trace else 1)
    want = _spec_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert env["workload_seed"] == SMOKE_SEED
    text = "\n".join(report)
    for metric in ("samples_per_s", "ber_bits_per_s", "gesture_hit_rate"):
        if workload.command == "simulate" or metric != "gesture_hit_rate":
            assert metric in text


@pytest.mark.parametrize("name", ["clean_stream", "noisy_lossy_stream"])
def test_stream_invariants_hold_for_other_seeds(name, tmp_path):
    workload = wl.WORKLOADS[name].smoke()
    main = bench.import_program()["cli"].main
    for seed in (1, 2):
        trace = tmp_path / "trace.csv"
        wl.write_trace(workload, seed, trace)
        rep = bench.run_once(workload, main, seed, trace, tmp_path)
        assert rep.errors == []
        sim = wl.simulated_metrics(workload, rep.files, trace)
        assert 0 <= sim["gesture_hit_rate"] <= 1
        assert sim["gesture_segments"] == workload.segments // 2


def test_check_outputs_catches_broken_invariants():
    workload = wl.WORKLOADS["clean_stream"].smoke()
    header = ",".join(wl.SUMMARY_FIELDS)
    bad = {"summary.csv": f"{header}\n1200,1199,1199,0,0,0,1184,4,OFF,0\n".encode()}
    assert wl.check_outputs(workload, bad) == ["frames_sent + frames_corrupted != samples"]
    ber = wl.WORKLOADS["ber_sweep"].smoke()
    rows = "noise_sigma,ber\n" + "".join(f"{s},0.5\n" for s in (0.6, 0.95, 1.3, 1.65, 2))
    assert len(wl.check_outputs(ber, {"ber.csv": rows.encode()})) == 5


def test_normalized_time_divides_out_machine_speed():
    n = reference.NOMINAL_S
    # the same repetition on a box twice as slow: both times double
    assert reference.normalized([1.5], [n, n]) == pytest.approx([1.5])
    assert reference.normalized([3.0], [2 * n, 2 * n]) == pytest.approx([1.5])
    # the runs before and after a repetition weigh equally
    assert reference.normalized([3.0], [n, 2 * n]) == pytest.approx([2.0])
    with pytest.raises(ValueError):
        reference.normalized([1.0], [n])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(name, tmp_path):
    workload = wl.WORKLOADS[name].smoke()
    modules = bench.import_program()
    main = modules["cli"].main
    trace = None
    if workload.command == "simulate":
        trace = tmp_path / "trace.csv"
        wl.write_trace(workload, SMOKE_SEED, trace)
    plain = bench.run_once(workload, main, SMOKE_SEED, trace, tmp_path)
    tracer = Tracer()
    with tracer.installed(modules):
        traced = bench.run_once(
            workload, tracer.wrap(ROOT_SPAN, main), SMOKE_SEED, trace, tmp_path
        )
    assert plain.errors == [] and traced.errors == []
    assert traced.digest == plain.digest
    assert modules["cli"].run_pipeline.__name__ == "run_pipeline"  # patches undone
    totals = tracer.layer_totals()
    assert totals[ROOT_SPAN][0] == 1
    if workload.command == "simulate":
        assert totals["framing.serialize"][0] == workload.samples
        assert totals["controller.run_pipeline"][0] == 1
    else:
        assert totals["modem.measure_ber"][0] == workload.points
    assert all(self_ns >= 0 for _, self_ns, _ in totals.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(wl.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        wl.REPO_ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "clean_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
