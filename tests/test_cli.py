import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wristlink
from wristlink.cli import _FIELD_FLAGS, main
from wristlink.classify import (
    CalibrationProfile,
    classify_window,
    load_profile,
    save_profile,
    window_mean,
)
from wristlink.controller import run_pipeline
from wristlink.link import LinkConfig
from wristlink.modem import NOISE_SIGMA_MAX, ModemConfig, measure_ber
from wristlink.sensor import (
    _LINES_PER_WRITE,
    TIME_MAX,
    GestureKind,
    Trace,
    _write_lines,
    generate_gesture,
    load_trace,
    save_trace,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_trace(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen", "--kind", "vertical", "--n", "10", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        trace = load_trace(tmp_path / "trace_vertical.csv")
        assert len(trace) == 10

    def test_bad_n(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--n", "0", "--out", str(tmp_path)
        )
        assert code == 2
        assert "--n" in err

    def test_bad_kind_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "sideways", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("vertical", "427f515a5854e92a00d636ad4e45be93a8c2b86723d28653e57cc35745316188"),
            ("horizontal", "899aa0b475b306f65cd5125384cb8766bd23d66bdaad64066c21c6d34f4a6141"),
            ("other", "f5e5a229a7a41720f027a03986f9a3abe27e10da55ac755917f1c766c73c2396"),
        ],
    )
    def test_trace_matches_recorded_digest(self, tmp_path, capsys, kind, digest):
        # the sub-seed, the gesture draws and the CSV format, end to end: a
        # change here is an output change, to be declared as one
        code, _, _ = run(
            capsys, "gen", "--kind", kind, "--n", "150", "--seed", "0", "--out", str(tmp_path),
        )
        assert code == 0
        data = (tmp_path / f"trace_{kind}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestSimulate:
    def test_demo_on_trace_ends_powered(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys, "simulate", "--demo", "on", "--seed", "7", "--out", str(out_dir),
        )
        assert code == 0
        assert "final_state=ON" in out
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("samples,frames_sent")
        assert ",ON," in summary[1]
        log = (out_dir / "simulation.log").read_text()
        assert "Access point started. Now start watch in ACC, PPT or Synch mode." in log
        assert "Acquiring data from accelerometer sensor" in log

    def test_missing_trace_file_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code, _, err = run(capsys, "simulate", "--trace", str(missing))
        assert code == 2
        assert str(missing) in err

    def test_field_past_the_int_digit_limit_exit_1_naming_its_line(self, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("t_ms,x,y,z\n0,1,2,3\n20," + "9" * 4400 + ",2,3\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", "--trace", str(p), "--out", str(out_dir))
        assert code == 1
        assert f"{p}: line 2: " in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--latency", "--pir-at"])
    def test_time_flag_past_the_bound_is_usage_error(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "out"
        argv = ["simulate", "--demo", "on", "--out", str(out_dir)]
        code, _, err = run(capsys, *argv, flag, str(TIME_MAX + 1))
        assert code == 2
        assert err.startswith(f"error: {flag}: ") and f"got {TIME_MAX + 1}" in err
        assert not out_dir.exists()
        # the bound itself: a trigger never reached, or a drain past the bound
        code, _, err = run(capsys, *argv, flag, str(TIME_MAX))
        assert code == (0 if flag == "--pir-at" else 2)

    @pytest.mark.parametrize("noise", ["1e200", "1e308"])
    def test_noise_past_the_bound_is_usage_error(self, tmp_path, capsys, noise):
        # past the modem's noise bound: refused before the trace is run
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--demo", "on", "--noise", noise, "--out", str(out_dir)
        )
        assert code == 2
        assert err.startswith("error: --noise: noise_sigma must be a finite number")
        assert out == ""
        assert not out_dir.exists()

    def test_trace_time_past_the_bound_exit_1_naming_its_line(self, tmp_path, capsys):
        p = tmp_path / "late.csv"
        p.write_text(f"t_ms,x,y,z\n0,1,2,3\n{TIME_MAX + 1},4,5,6\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", "--trace", str(p), "--out", str(out_dir))
        assert code == 1
        assert f"{p}: line 2: t must be an integer in 0..{TIME_MAX}" in err
        assert not out_dir.exists()

    def test_drain_past_the_bound_is_usage_error_naming_latency(self, tmp_path, capsys):
        # the trace's last time is the bound: only latency 0 drains within it
        p = tmp_path / "last.csv"
        p.write_text(f"t_ms,x,y,z\n0,1,2,3\n{TIME_MAX},4,5,6\n")
        argv = ["simulate", "--trace", str(p), "--out", str(tmp_path / "out")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: --latency: latency must keep the drain time")
        code, _, _ = run(capsys, *argv, "--latency", "0")
        assert code == 0
        log = (tmp_path / "out" / "simulation.log").read_text()
        assert f"[t={TIME_MAX}] FRAME_DELIVERED frame=1 " in log

    def test_trace_and_demo_conflict(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--trace", "x.csv", "--demo", "on",
        )
        assert code == 2

    def test_no_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate")
        assert code == 2
        assert "--trace" in err or "--demo" in err

    def test_seeded_rerun_byte_identical(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        save_trace(generate_gesture(GestureKind.VERTICAL_UP_DOWN, 48, 5), trace_path)
        args = [
            "simulate", "--trace", str(trace_path), "--seed", "7",
            "--loss", "0.2", "--noise", "0.2",
        ]
        code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        for name in ("simulation.log", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_loss_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--demo", "on", "--loss", "1.5",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "--loss" in err

    def test_non_finite_noise_rejected(self, tmp_path, capsys):
        # a NaN sigma must not pass as "noiseless"
        code, _, err = run(
            capsys, "simulate", "--demo", "on", "--noise", "nan",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "--noise" in err
        assert not (tmp_path / "simulation.log").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--latency", "-1"), ("--attenuation", "0"), ("--attenuation", "1.5"), ("--loss", "-0.1")],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        code, _, err = run(
            capsys, "simulate", "--demo", "on", flag, value, "--out", str(tmp_path),
        )
        assert code == 2
        assert flag in err
        assert not (tmp_path / "simulation.log").exists()

    def test_negative_pir_at_flag_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--demo", "on", "--pir-at", "-1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "--pir-at" in err
        assert not (tmp_path / "simulation.log").exists()

    def test_negative_pir_at_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"demo": "on", "pir_at": -1}))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert "--pir-at" in err
        assert not (out_dir / "simulation.log").exists()

    def test_no_pir_leaves_appliance_off(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "simulate", "--demo", "on", "--no-pir", "--out", str(tmp_path),
        )
        assert code == 0
        assert "final_state=OFF" in out

    def test_config_file_supplies_flags_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"demo": "on", "seed": 3, "no_pir": True}))
        out_a = tmp_path / "a"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))
        assert code == 0
        assert "final_state=OFF" in out  # no_pir came from the config
        # explicit flag overrides the config's seed; outputs must match a
        # plain invocation with the same effective options
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        run(capsys, "simulate", "--config", str(cfg), "--seed", "9", "--out", str(out_b))
        run(capsys, "simulate", "--demo", "on", "--no-pir", "--seed", "9", "--out", str(out_c))
        assert (out_b / "simulation.log").read_bytes() == (
            out_c / "simulation.log"
        ).read_bytes()

    @pytest.mark.parametrize("extra", [{"bogus": 1}, {"config": "x"}])
    def test_config_unknown_key_rejected(self, tmp_path, capsys, extra):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"demo": "on", **extra}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert f"unknown keys: {', '.join(extra)}" in err

    def test_non_utf8_config_is_usage_error_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"demo": "on", "out": "caf\xff"}')
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert str(cfg) in err
        assert not out_dir.exists()

    def test_config_does_not_outlive_its_run(self, tmp_path, capsys):
        # the config's keys replace defaults for that invocation only
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"no_pir": True, "latency": 25}))
        code, out, _ = run(
            capsys, "simulate", "--demo", "on", "--config", str(cfg),
            "--out", str(tmp_path / "a"),
        )
        assert code == 0
        assert "final_state=OFF" in out
        code, out, _ = run(capsys, "simulate", "--demo", "on", "--out", str(tmp_path / "b"))
        assert code == 0
        assert "final_state=ON" in out
        run(
            capsys, "simulate", "--demo", "on", "--latency", str(LinkConfig.latency),
            "--out", str(tmp_path / "c"),
        )
        assert (tmp_path / "b" / "simulation.log").read_bytes() == (
            tmp_path / "c" / "simulation.log"
        ).read_bytes()


    # SHA-256 of simulation.log followed by summary.csv. The first three were
    # recorded before the pipeline's per-sample event loop became the block
    # event core: latency 0 delivers each frame in the next sample's slot,
    # after its own send line. The rest were recorded while every run, sigma 0
    # included, still sent each block as FSK waveforms; at attenuation 1e-170
    # every bit decodes as 0, so every frame fails the sync check.
    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--latency", "0", "--pir-at", "130", "--loss", "0.3", "--noise", "0.8"],
                "77b59e36271b537fc5c364043df50da5636aed73d2a4e3ed86bb73e6e0acb55d",
            ),
            (
                ["--latency", "0", "--no-pir", "--loss", "0.3", "--noise", "0.8"],
                "c99451598be9e17be3c2d6e7e8403a60246e4254c65af143a989607f539420af",
            ),
            (
                ["--latency", "45", "--pir-at", "130", "--loss", "0.3", "--noise", "0.8"],
                "bd7f3486e067714827fb3891f3685f69e4f7b6fc95c2e9fad8316c52ebd62cd8",
            ),
            (
                ["--noise", "0", "--attenuation", "1"],
                "7e7507f7b7fff2f3eaff0eb0997b527636609e23a66dd15bb255337f8b8b1504",
            ),
            (
                ["--noise", "0", "--attenuation", "0.3"],
                "7e7507f7b7fff2f3eaff0eb0997b527636609e23a66dd15bb255337f8b8b1504",
            ),
            (
                ["--noise", "0", "--attenuation", "1e-170"],
                "79f03eb0963b8de7f720e30a7ae5f8e6c3c6e12205692fb43bb915f1e6bcbf21",
            ),
            (
                ["--noise", "0.8", "--loss", "0.2"],
                "63dd1015f2e0455aa05052056fd2e58fa310353061153f50b40b9dcbb99193f0",
            ),
        ],
    )
    def test_outputs_match_recorded_digest(self, tmp_path, capsys, flags, digest):
        code, _, _ = run(
            capsys, "simulate", "--demo", "on", *flags, "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        data = b"".join(
            (tmp_path / name).read_bytes() for name in ("simulation.log", "summary.csv")
        )
        assert hashlib.sha256(data).hexdigest() == digest

    def test_peak_memory_is_at_most_1_7_times_the_log(self, tmp_path, capsys):
        # the log, the trace, a few columns and a chunk of lines come to
        # about 1.45 times the log's own size (the list and its strings);
        # whole-log copies of the lines, or a whole-file join, exceed 1.7
        assert main(["gen", "--kind", "vertical", "--n", "4000", "--out", str(tmp_path)]) == 0
        trace_path = tmp_path / "trace_vertical.csv"
        argv = ["simulate", "--trace", str(trace_path), "--noise", "0", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()[1]
        assert summary.startswith("4000,4000,4000,0,0,")  # every frame delivered
        lines = (tmp_path / "simulation.log").read_text(encoding="ascii").splitlines()
        log_size = sys.getsizeof([*lines]) + sum(map(sys.getsizeof, lines))
        assert peak <= 1.7 * log_size


class TestLogWriter:
    """sensor._write_lines writes _LINES_PER_WRITE lines at a time: the file
    is the lines joined and ended by newlines, whatever their count."""

    @pytest.mark.parametrize(
        "n", [0, 1, *(_LINES_PER_WRITE + d for d in (-1, 0, 1)), 2 * _LINES_PER_WRITE + 3]
    )
    @settings(max_examples=20, deadline=None)
    @given(pool=st.lists(st.text(st.characters(max_codepoint=127)), min_size=1, max_size=7))
    def test_file_is_the_joined_lines(self, tmp_path_factory, n, pool):
        lines = [f"{i}:{pool[i % len(pool)]}" for i in range(n)]
        path = tmp_path_factory.mktemp("log") / "simulation.log"
        _write_lines(path, lines)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["gen", "--n", "10"], "trace_vertical.csv"),
            (["simulate", "--demo", "on", "--noise", "0.5"], "simulation.log"),
            (["simulate", "--demo", "on", "--noise", "0.5"], "summary.csv"),
            (["ber", "--points", "2", "--bits", "200"], "ber.csv"),
            (["calibrate", "--on-dir", "on", "--off-dir", "off"], "profile.json"),
        ],
        ids=["trace", "simulation.log", "summary.csv", "ber.csv", "profile"],
    )
    def test_every_output_is_written_by_it(self, tmp_path, capsys, monkeypatch, argv, name):
        # the five outputs are the one line format, so each file a command
        # leaves is exactly the lines it handed the writer
        for kind, folder in ((GestureKind.VERTICAL_UP_DOWN, "on"), (GestureKind.HORIZONTAL, "off")):
            (tmp_path / folder).mkdir()
            save_trace(generate_gesture(kind, 40, 3), tmp_path / folder / "t.csv")
        written = {}

        def recording(path, lines):
            written[Path(path).name] = list(lines)
            _write_lines(path, lines)

        for module in ("sensor", "classify", "cli"):
            monkeypatch.setattr(f"wristlink.{module}._write_lines", recording)
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(written)
        want = ("\n".join(written[name]) + "\n").encode("ascii")
        assert (tmp_path / "out" / name).read_bytes() == want


class TestBer:
    def test_noise_zero_point_is_zero(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "ber", "--sigma-min", "0", "--sigma-max", "0",
            "--points", "1", "--bits", "500", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "ber.csv").read_text().splitlines()
        assert rows == ["noise_sigma,ber", "0,0"]

    def test_sweep_is_non_decreasing(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "ber", "--sigma-min", "0", "--sigma-max", "3",
            "--points", "5", "--bits", "4000", "--seed", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "ber.csv").read_text().splitlines()[1:]
        rates = [float(r.split(",")[1]) for r in rows]
        assert len(rates) == 5
        assert rates == sorted(rates)

    def test_fixed_seed_rerun_identical(self, tmp_path, capsys):
        args = ["ber", "--sigma-min", "0.5", "--sigma-max", "2", "--points", "3",
                "--bits", "2000", "--seed", "4"]
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "ber.csv").read_bytes() == (
            tmp_path / "b" / "ber.csv"
        ).read_bytes()

    def test_invalid_sweep_range(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "ber", "--sigma-min", "2", "--sigma-max", "1",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "sweep" in err


    def test_infinite_sweep_bound_rejected(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "ber", "--sigma-max", "inf", "--out", str(tmp_path),
        )
        assert code == 2
        assert "sweep" in err
        assert out == ""
        assert not (tmp_path / "ber.csv").exists()

    @pytest.mark.parametrize("sigma_max", ["1e200", "1e308"])
    def test_sweep_past_the_noise_bound_refused_before_any_point(
        self, tmp_path, capsys, sigma_max
    ):
        # every point is checked first: no row is printed, no file written
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "ber", "--sigma-max", sigma_max, "--points", "2", "--bits", "100",
            "--out", str(out_dir),
        )
        assert code == 2
        assert err.startswith(f"error: --sigma-max: {float(sigma_max)} puts sweep points past")
        assert "noise_sigma must be a finite number" in err
        assert out == ""
        assert not out_dir.exists()

    def test_sweep_up_to_the_noise_bound_runs(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "ber", "--sigma-max", repr(NOISE_SIGMA_MAX), "--points", "2",
            "--bits", "100", "--out", str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "0,0"
        assert out.splitlines()[1].startswith(f"{NOISE_SIGMA_MAX:.6g},")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_memory_does_not_grow_with_bits(self, tmp_path):
        # a fresh parent process, so RUSAGE_CHILDREN sees only the ber run;
        # sending 2M bits as one row would peak at over 500 MiB
        probe = (
            "import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = str(Path(wristlink.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [
                sys.executable, "-c", probe,
                sys.executable, "-m", "wristlink", "ber", "--points", "1",
                "--bits", "2000000", "--out", str(tmp_path),
            ],
            env=env, capture_output=True, text=True, check=True,
        )
        assert int(proc.stdout) / 1024 < 150  # MiB


class TestClassify:
    def test_demo_on_window_17(self, capsys):
        code, out, _ = run(capsys, "classify", "--demo", "on", "--window", "17")
        assert code == 0
        assert out.strip() == "window 0: z_mean=273.53 y_mean=200.00 action=ON"

    def test_demo_off_window_18(self, capsys):
        code, out, _ = run(capsys, "classify", "--demo", "off", "--window", "18")
        assert code == 0
        assert "y_mean=355.44" in out
        assert "action=OFF" in out

    def test_demo_nothing(self, capsys):
        code, out, _ = run(capsys, "classify", "--demo", "nothing", "--window", "19")
        assert code == 0
        assert "action=DO_NOTHING" in out

    def test_all_zero_trace_does_nothing(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text("t_ms,x,y,z\n" + "".join(f"{i},0,0,0\n" for i in range(16)))
        code, out, _ = run(capsys, "classify", "--trace", str(p))
        assert code == 0
        assert "action=DO_NOTHING" in out

    def test_trace_shorter_than_window_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--demo", "on", "--window", "18")
        assert code == 2
        assert "shorter" in err

    def test_multiple_windows_one_line_each(self, tmp_path, capsys):
        # three 20-sample gestures read in back-to-back windows of 7, some
        # straddling two gestures: each line gives its window's exact means
        # and verdict, as the one-window calls give them
        parts = [generate_gesture(kind, 20, seed) for seed, kind in enumerate(GestureKind)]
        columns = [np.concatenate([getattr(part, axis) for part in parts]) for axis in "xyz"]
        trace = Trace.from_columns(range(0, 60 * 20, 20), *columns)
        p = tmp_path / "t.csv"
        save_trace(trace, p)
        code, out, _ = run(capsys, "classify", "--trace", str(p), "--window", "7")
        profile = CalibrationProfile(window_size=7)
        want = []
        for i in range(60 // 7):
            win = trace.samples[i * 7 : (i + 1) * 7]
            z_mean, y_mean = float(window_mean(win, "z")), float(window_mean(win, "y"))
            verdict = classify_window(win, profile).value
            want.append(f"window {i}: z_mean={z_mean:.2f} y_mean={y_mean:.2f} action={verdict}")
        assert code == 0
        assert out.splitlines() == want
        assert {line.rsplit("=", 1)[1] for line in want} == {"ON", "OFF", "DO_NOTHING"}


class TestCalibrate:
    def write_training_dirs(self, tmp_path, n_traces=2):
        on_dir = tmp_path / "on"
        off_dir = tmp_path / "off"
        on_dir.mkdir()
        off_dir.mkdir()
        for i in range(n_traces):
            save_trace(
                generate_gesture(GestureKind.VERTICAL_UP_DOWN, 20, seed=i),
                on_dir / f"on_{i}.csv",
            )
            save_trace(
                generate_gesture(GestureKind.HORIZONTAL, 20, seed=100 + i),
                off_dir / f"off_{i}.csv",
            )
        return on_dir, off_dir

    def test_writes_profile_and_prints_bands(self, tmp_path, capsys):
        on_dir, off_dir = self.write_training_dirs(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "calibrate", "--on-dir", str(on_dir), "--off-dir", str(off_dir),
            "--out", str(out_dir),
        )
        assert code == 0
        assert "on_band=" in out and "off_band=" in out
        profile = load_profile(out_dir / "profile.json")
        assert profile.on_band[0] >= 261 and profile.on_band[1] <= 284

    def test_empty_directory_exit_2(self, tmp_path, capsys):
        on_dir = tmp_path / "on"
        on_dir.mkdir()
        off_dir = tmp_path / "off"
        off_dir.mkdir()
        code, _, err = run(
            capsys, "calibrate", "--on-dir", str(on_dir), "--off-dir", str(off_dir),
        )
        assert code == 2
        assert "no .csv traces" in err

    @pytest.mark.parametrize("text", ["", "t_ms,x,y,z\n"])
    def test_empty_trace_exit_1_naming_the_file(self, tmp_path, capsys, text):
        on_dir, off_dir = self.write_training_dirs(tmp_path)
        empty = off_dir / "off_empty.csv"
        empty.write_text(text)
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "calibrate", "--on-dir", str(on_dir), "--off-dir", str(off_dir),
            "--out", str(out_dir),
        )
        assert code == 1
        assert err == f"error: {empty}: a labeled trace must be non-empty\n"
        assert not out_dir.exists()

    def test_overlap_exit_1_with_both_bands_printed(self, tmp_path, capsys):
        on_dir, off_dir = self.write_training_dirs(tmp_path)
        code, _, err = run(
            capsys, "calibrate", "--on-dir", str(on_dir), "--off-dir", str(off_dir),
            "--margin-hi", "120",
        )
        assert code == 1
        assert "on_band=" in err and "off_band=" in err

    def test_inverting_margin_exit_1_naming_the_band(self, tmp_path, capsys):
        # a margin that turns a band inside out is a CalibrationError
        on_dir, off_dir = self.write_training_dirs(tmp_path)
        code, _, err = run(
            capsys, "calibrate", "--on-dir", str(on_dir), "--off-dir", str(off_dir),
            "--margin-lo", "-100", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "on_band must be an interval" in err
        assert not (tmp_path / "out").exists()

    def test_missing_dirs_usage_error(self, capsys):
        code, _, _ = run(capsys, "calibrate")
        assert code == 2

    def test_seed_not_accepted(self, tmp_path, capsys):
        # calibration draws no random numbers, so it takes no seed
        on_dir, off_dir = self.write_training_dirs(tmp_path)
        dirs = ["--on-dir", str(on_dir), "--off-dir", str(off_dir), "--out", str(tmp_path / "out")]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 1}))
        code, _, err = run(capsys, "calibrate", *dirs, "--config", str(cfg))
        assert code == 2
        assert "unknown keys: seed" in err
        assert run(capsys, "calibrate", *dirs, "--seed", "1")[0] == 2
        assert not (tmp_path / "out").exists()


class TestMisc:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_simulate_help_shows_declared_defaults(self, capsys):
        code, out, _ = run(capsys, "simulate", "--help")
        assert code == 0
        help_text = " ".join(out.split())
        assert f"--latency LATENCY per-frame latency in ms (default {LinkConfig.latency})" in help_text

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_profile_flag_reads_custom_profile(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        save_profile(
            CalibrationProfile(on_band=(0, 10), off_band=(20, 30), window_size=4),
            profile_path,
        )
        p = tmp_path / "t.csv"
        p.write_text("t_ms,x,y,z\n" + "".join(f"{i},0,5,5\n" for i in range(4)))
        code, out, _ = run(
            capsys, "classify", "--trace", str(p), "--profile", str(profile_path)
        )
        assert code == 0
        assert "action=ON" in out

    def test_malformed_trace_is_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("t_ms,x,y,z\n0,1,2,9999\n")
        code, _, err = run(capsys, "classify", "--trace", str(p))
        assert code == 1
        assert "line 1" in err


# each parameter a flag sets, and a call whose owner rejects a bad value of it
OWNERS = {
    "loss_probability": lambda: LinkConfig(loss_probability=1.5),
    "latency": lambda: LinkConfig(latency=-1),
    "noise_sigma": lambda: ModemConfig(noise_sigma=-1.0),
    "channel_attenuation": lambda: ModemConfig(channel_attenuation=0.0),
    "n": lambda: generate_gesture("vertical", 0, 0),
    "pir_at": lambda: run_pipeline(generate_gesture("vertical", 1, 0), pir_at=-1),
    "n_bits": lambda: measure_ber(ModemConfig(), 0),
    "window_size": lambda: CalibrationProfile(window_size=-1),
}


class TestOwnedFlags:
    """A flag value that its library owner rejects exits 2 naming the flag;
    the CLI restates none of the owners' checks."""

    def test_every_flagged_parameter_has_an_owner_case(self):
        assert set(OWNERS) == set(_FIELD_FLAGS)

    @pytest.mark.parametrize("name", OWNERS)
    def test_owner_message_names_exactly_its_parameter(self, name):
        with pytest.raises(ValueError) as info:
            OWNERS[name]()
        message = str(info.value)
        assert [key for key in _FIELD_FLAGS if message.startswith(f"{key} ")] == [name]

    # command, flag, config key, bad value, and the other arguments it needs
    CASES = [
        ("gen", "--n", "n", 0, []),
        ("simulate", "--pir-at", "pir_at", -1, ["--demo", "on"]),
        ("ber", "--bits", "bits", 0, ["--points", "1"]),
        ("classify", "--window", "window", -1, ["--demo", "on"]),
    ]

    def check_usage_error(self, capsys, tmp_path, flag, argv):
        out = tmp_path / "out"
        if argv[0] != "classify":
            argv += ["--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {flag}: ")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, key, bad, args", CASES)
    def test_flag_value_is_usage_error(self, tmp_path, capsys, command, flag, key, bad, args):
        self.check_usage_error(capsys, tmp_path, flag, [command, *args, flag, str(bad)])

    @pytest.mark.parametrize("command, flag, key, bad, args", CASES)
    def test_config_value_is_usage_error(self, tmp_path, capsys, command, flag, key, bad, args):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: bad}))
        self.check_usage_error(capsys, tmp_path, flag, [command, *args, "--config", str(cfg)])

    def test_bad_pir_at_wins_over_an_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("t_ms,x,y,z\n")
        argv = ["simulate", "--trace", str(empty), "--out", str(tmp_path / "out")]
        self.check_usage_error(capsys, tmp_path, "--pir-at", [*argv, "--pir-at", "-1"])
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "trace is empty" in err

    def test_value_error_subclasses_exit_1(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        profile.write_text(
            '{"on_band": 5, "off_band": [323, 384], "window_size": 16, "debounce_n": 2}'
        )
        code, _, err = run(capsys, "classify", "--demo", "on", "--profile", str(profile))
        assert code == 1
        assert str(profile) in err and "on_band" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--demo", "on", "--loss", "0_1"], "--loss"),
        (["gen", "--n", "\u0661\u0662"], "--n"),
        (["gen", "--seed", "1_0"], "--seed"),
        (["simulate", "--demo", "on", "--latency", " 10"], "--latency"),
    ],
    ids=["loss-underscore", "n-arabic-indic", "seed-underscore", "latency-space"],
)
def test_number_flag_refuses_other_spellings(tmp_path, capsys, argv, flag):
    # int() and float() take "_" between digits, surrounding whitespace and
    # non-ASCII digits: --loss 0_1 would run at loss 1.0, not 0.1
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"argument {flag}: invalid" in err
    assert stdout == ""
    assert not out.exists()


class TestConfigTypes:
    @pytest.mark.parametrize(
        "command, keys, bad",
        [
            ("simulate", {"demo": "on", "loss": "0.1"}, "loss"),
            ("simulate", {"demo": "on", "noise": True}, "noise"),
            ("simulate", {"demo": "on", "seed": True}, "seed"),
            ("simulate", {"demo": "on", "latency": 10.0}, "latency"),
            ("simulate", {"demo": "on", "no_pir": 1}, "no_pir"),
            ("simulate", {"demo": ["on"]}, "demo"),
            ("classify", {"demo": "on", "window": 2.5}, "window"),
            ("ber", {"bits": 2.5}, "bits"),
            ("ber", {"sigma_max": "2"}, "sigma_max"),
            ("gen", {"kind": 3}, "kind"),
            ("calibrate", {"margin_lo": None}, "margin_lo"),
        ],
    )
    def test_mismatched_type_is_usage_error(self, tmp_path, capsys, command, keys, bad):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(keys))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "classify":
            argv += ["--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert repr(bad) in err
        assert not out.exists()

    def test_int_accepted_as_float(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sigma_min": 0, "sigma_max": 0, "points": 1, "bits": 500}))
        code, _, _ = run(capsys, "ber", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "ber.csv").read_text().splitlines() == ["noise_sigma,ber", "0,0"]

    @pytest.mark.parametrize(
        "command, keys, bad",
        [
            ("gen", {"kind": "sideways"}, "kind"),
            ("simulate", {"demo": "bogus"}, "demo"),
            ("classify", {"demo": "bogus"}, "demo"),
        ],
    )
    def test_value_outside_choices_is_usage_error(self, tmp_path, capsys, command, keys, bad):
        # the flag's choices hold for a config value as they do on the command line
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(keys))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "classify":
            argv += ["--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert str(cfg) in err
        assert repr(bad) in err
        assert not out.exists()

    def test_kind_inside_choices_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kind": "horizontal", "n": 8}))
        code, _, _ = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trace_horizontal.csv").is_file()

    def test_demo_inside_choices_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"demo": "off"}))
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert "action=OFF" in out


def check_refused(capsys, tmp_path, argv, code, *names):
    """Run argv, which writes below tmp_path/out if anywhere: it exits with
    code, prints one error line naming each of names, and writes nothing."""
    out = tmp_path / "out"
    if argv[0] != "classify":
        argv = [*argv, "--out", str(out)]
    got, stdout, err = run(capsys, *argv)
    assert got == code, err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    for name in names:
        assert name in line
    assert "Traceback" not in err
    assert stdout == ""
    assert not out.exists()
    return line


# a JSON document nested past the parser's recursion limit
DEEP = "[" * 2000 + "]" * 2000


class TestInputFiles:
    """Each input file at the command line has one reader: the one JSON
    reader for --config (exit 2) and --profile (exit 1), one existing-file
    rule for --trace, --profile and --config."""

    @pytest.mark.parametrize("flag", ["--trace", "--profile", "--config"])
    def test_missing_file_exit_2_naming_flag_and_file(self, tmp_path, capsys, flag):
        missing = tmp_path / "nope.json"
        argv = ["simulate", "--demo", "on", flag, str(missing)]
        if flag == "--trace":
            argv = ["simulate", flag, str(missing)]
        check_refused(capsys, tmp_path, argv, 2, flag, str(missing))

    def test_config_key_naming_a_missing_file_exit_2_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trace": str(tmp_path / "nope.csv")}))
        check_refused(capsys, tmp_path, ["simulate", "--config", str(cfg)], 2, str(cfg), "'trace'")

    @pytest.mark.parametrize(
        "text, words",
        [
            ("{nope", "not valid JSON"),
            (DEEP, "not valid JSON"),
            ("[1, 2]", "not a JSON object"),
            ('"on"', "not a JSON object"),
        ],
        ids=["invalid", "deep", "array", "string"],
    )
    def test_config_document_fault_exit_2_naming_the_file(self, tmp_path, capsys, text, words):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        line = check_refused(capsys, tmp_path, ["gen", "--config", str(cfg)], 2)
        assert line.startswith(f"error: config file {cfg}: {words}")

    @pytest.mark.parametrize(
        "text, words",
        [
            ("{nope", "not valid JSON"),
            (DEEP, "not valid JSON"),
            ("[240, 286]", "not a JSON object"),
        ],
        ids=["invalid", "deep", "array"],
    )
    def test_profile_document_fault_exit_1_naming_the_file(self, tmp_path, capsys, text, words):
        profile = tmp_path / "profile.json"
        profile.write_text(text)
        argv = ["classify", "--demo", "on", "--profile", str(profile)]
        assert check_refused(capsys, tmp_path, argv, 1).startswith(f"error: {profile}: {words}")

    def test_points_zero_exit_2_naming_the_flag(self, tmp_path, capsys):
        check_refused(capsys, tmp_path, ["ber", "--points", "0"], 2, "--points")

    def test_sweep_past_memory_exit_2_naming_the_flag(self, tmp_path, capsys):
        # 10**11 sweep points need 745 GiB, which NumPy fails to allocate
        argv = ["ber", "--points", "100000000000", "--bits", "1"]
        check_refused(capsys, tmp_path, argv, 2, "--points", "100000000000")

    @pytest.mark.parametrize(
        "error, line",
        [(MemoryError(), "error: out of memory"), (MemoryError("no room"), "error: no room")],
    )
    def test_memory_error_exit_1_with_one_line(self, tmp_path, capsys, monkeypatch, error, line):
        def no_room(*args):
            raise error

        monkeypatch.setattr("wristlink.cli.generate_gesture", no_room)
        assert check_refused(capsys, tmp_path, ["gen"], 1) == line

    @pytest.mark.parametrize("command, code", [("gen", 2), ("classify", 1)])
    def test_duplicate_key_named(self, tmp_path, capsys, command, code):
        # a config file's fault is a usage error, a profile's a domain one
        doc = tmp_path / "doc.json"
        if command == "gen":
            doc.write_text('{"n": 0, "n": 5}')
            argv = ["gen", "--config", str(doc)]
        else:
            doc.write_text('{"on_band": [240, 286], "off_band": [323, 384], '
                           '"window_size": 4, "debounce_n": 2, "window_size": 4}')
            argv = ["classify", "--demo", "on", "--profile", str(doc)]
        line = check_refused(capsys, tmp_path, argv, code, str(doc))
        assert line.endswith(f"duplicate key {'n' if command == 'gen' else 'window_size'!r}")

    def test_calibrate_dir_that_is_a_file_exit_2_naming_the_flag(self, tmp_path, capsys):
        not_dir = tmp_path / "on.csv"
        not_dir.write_text("t_ms,x,y,z\n")
        argv = ["calibrate", "--on-dir", str(not_dir), "--off-dir", str(tmp_path)]
        check_refused(capsys, tmp_path, argv, 2, "--on-dir", str(not_dir))

    def test_config_matches_its_flags_byte_for_byte(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"demo": "on", "loss": 0.2, "seed": 3}))
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))[0] == 0
        argv = ["simulate", "--demo", "on", "--loss", "0.2", "--seed", "3", "--out", str(tmp_path / "b")]
        assert run(capsys, *argv)[0] == 0
        for name in ("simulation.log", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_first_bad_key_in_file_order_is_named(self, tmp_path, capsys):
        # a value outside a flag's choices is checked with its type, in one step
        cfg = tmp_path / "run.json"
        cfg.write_text('{"kind": "sideways", "n": "8"}')
        check_refused(capsys, tmp_path, ["gen", "--config", str(cfg)], 2, "'kind'", "sideways")
        cfg.write_text('{"n": "8", "kind": "sideways"}')
        check_refused(capsys, tmp_path, ["gen", "--config", str(cfg)], 2, "'n'", "invalid int value")

    @pytest.mark.parametrize(
        "value, flag",
        [("1e400", "--loss"), ("1" + "0" * 400, "--loss"), ("NaN", "--noise")],
    )
    def test_float_past_the_range_is_refused_by_the_owner(self, tmp_path, capsys, value, flag):
        # an integer past the float range reads as inf, as its flag's text would
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"demo": "on", "{flag[2:]}": {value}}}')
        line = check_refused(capsys, tmp_path, ["simulate", "--config", str(cfg)], 2, flag)
        assert line.startswith(f"error: {flag}: ")


@pytest.fixture(params=["default", "off"])
def digit_limit(request):
    """int()'s digit limit, as the interpreter sets it or switched off."""
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(default if request.param == "default" else 0)
    yield
    sys.set_int_max_str_digits(default)


class TestIntegerDigitBound:
    """An integer of more than 640 digits is refused wherever it comes
    from, whatever int()'s digit limit; its error quotes at most 80 of its
    characters."""

    LONG = "9" * 5000

    def test_seed_flag(self, tmp_path, capsys, digit_limit):
        line = check_refused(capsys, tmp_path, ["gen", "--seed", self.LONG], 2, "--seed")
        assert "9" * 81 not in line and "5000 characters" in line

    def test_config_value(self, tmp_path, capsys, digit_limit):
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"seed": {self.LONG}}}')
        line = check_refused(capsys, tmp_path, ["gen", "--config", str(cfg)], 2, str(cfg), "'seed'")
        assert "9" * 81 not in line and "5000 characters" in line

    @pytest.mark.parametrize("band", [False, True])
    def test_profile_value(self, tmp_path, capsys, digit_limit, band):
        profile = tmp_path / "profile.json"
        doc = {"on_band": "[240, 286]", "off_band": "[323, 384]", "window_size": "16", "debounce_n": "2"}
        doc["on_band" if band else "window_size"] = f"[1, {self.LONG}]" if band else self.LONG
        profile.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}")
        argv = ["classify", "--demo", "on", "--profile", str(profile)]
        line = check_refused(capsys, tmp_path, argv, 1, "on_band" if band else "window_size")
        assert line.startswith(f"error: {profile}: ")
        assert "9" * 81 not in line

    @pytest.mark.parametrize("digits, code", [(640, 0), (641, 2)])
    def test_bound_is_640_digits(self, tmp_path, capsys, digit_limit, digits, code):
        # any seed is hashed into the sub-seeds, so 640 digits run
        seed = "1" + "0" * (digits - 1)
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"seed": {seed}}}')
        for argv in (["gen", "--seed", seed], ["gen", "--config", str(cfg)]):
            got, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
            assert got == code, err
