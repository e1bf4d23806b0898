"""Command-line front door: trace generation, calibration, codec BER sweeps,
window classification, and full end-to-end simulation.

Exit codes: 0 success, 1 runtime/domain error, 2 usage or configuration
error. All randomness flows from the single --seed flag, fanned out to
per-stage sub-seeds by a fixed hash derivation, so any invocation repeated
with identical flags produces byte-identical output files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classify import (
    CalibrationError,
    CalibrationProfile,
    ProfileError,
    calibrate,
    classify_window,
    load_profile,
    save_profile,
    window_mean,
)
from .controller import run_pipeline
from .demo import DEMO_NAMES, demo_trace
from .link import LinkConfig, ProtocolError
from .modem import ModemConfig, measure_ber
from .sensor import GestureKind, TraceFormatError, generate_gesture, load_trace, save_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# the simulate flag that sets each LinkConfig / ModemConfig field
_FIELD_FLAGS = {
    "loss_probability": "--loss",
    "latency": "--latency",
    "noise_sigma": "--noise",
    "channel_attenuation": "--attenuation",
}


class _UsageError(Exception):
    """Bad flag or configuration value; maps to exit code 2."""


def _config(cls, **fields):
    """Build a config dataclass, whose checks own the flag values; a value it
    rejects is a usage error that names the flag setting it."""
    try:
        return cls(**fields)
    except ValueError as exc:
        flags = [flag for name, flag in _FIELD_FLAGS.items() if name in str(exc)]
        raise _UsageError(f"{'/'.join(flags)}: {exc}") from None


def _subseed(seed: int, stage: str) -> int:
    """Fixed derivation of a per-stage 64-bit sub-seed from the --seed knob."""
    digest = hashlib.sha256(f"wristlink:{stage}:{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The wristlink parser, and its subcommand parsers by name. Each flag's
    default is declared here, once; a --config file replaces defaults."""
    parser = argparse.ArgumentParser(
        prog="wristlink",
        description="Deterministic wearable-gesture home-automation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", help="JSON config file keyed by dest names; flags win over its keys")

    def output(p):
        p.add_argument("--out", default="out", help="output directory (default %(default)s)")
        config(p)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master random seed (default %(default)s)")
        output(p)

    def trace_input(p):
        p.add_argument("--trace", help="input trace CSV")
        p.add_argument("--demo", choices=DEMO_NAMES, help="use a bundled demo trace")
        p.add_argument("--profile", help="calibration profile JSON (default: built-in)")

    p = sub.add_parser("gen", help="generate a synthetic gesture trace")
    kinds = [k.value for k in GestureKind]
    p.add_argument("--kind", choices=kinds, default="vertical", help="gesture kind (default %(default)s)")
    p.add_argument("--n", type=int, default=64, help="sample count (default %(default)s)")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("simulate", help="run the full pipeline on a trace")
    trace_input(p)
    p.add_argument("--loss", type=float, default=LinkConfig.loss_probability,
                   help="frame loss probability (default %(default)s)")
    p.add_argument("--latency", type=int, default=LinkConfig.latency,
                   help="per-frame latency in ms (default %(default)s)")
    p.add_argument("--noise", type=float, default=ModemConfig.noise_sigma,
                   help="channel noise sigma (default %(default)s)")
    p.add_argument("--attenuation", type=float, default=ModemConfig.channel_attenuation,
                   help="channel gain in (0,1] (default %(default)s)")
    p.add_argument("--pir-at", dest="pir_at", type=int, default=0,
                   help="presence trigger time ms (default %(default)s)")
    p.add_argument("--no-pir", dest="no_pir", action="store_true", help="never trigger presence")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ber", help="sweep channel noise and report bit error rates")
    p.add_argument("--sigma-min", dest="sigma_min", type=float, default=0.0, help="(default %(default)s)")
    p.add_argument("--sigma-max", dest="sigma_max", type=float, default=2.0, help="(default %(default)s)")
    p.add_argument("--points", type=int, default=5, help="sweep points (default %(default)s)")
    p.add_argument("--bits", type=int, default=10000, help="bits per point (default %(default)s)")
    common(p)
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("classify", help="print the verdict for each trace window")
    trace_input(p)
    p.add_argument("--window", type=int, default=0,
                   help="window length override, 0 = profile value (default %(default)s)")
    config(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("calibrate", help="fit decision bands from labeled trace directories")
    p.add_argument("--on-dir", dest="on_dir", help="directory of vertical-motion traces")
    p.add_argument("--off-dir", dest="off_dir", help="directory of horizontal-motion traces")
    p.add_argument("--margin-lo", dest="margin_lo", type=int, default=0, help="(default %(default)s)")
    p.add_argument("--margin-hi", dest="margin_hi", type=int, default=0, help="(default %(default)s)")
    output(p)  # calibration draws no random numbers: no --seed
    p.set_defaults(func=cmd_calibrate)

    return parser, sub.choices


def _config_defaults(ns: argparse.Namespace, sub: argparse.ArgumentParser) -> dict:
    """The defaults that the --config file of a parsed command line sets for
    its subcommand: a JSON object keyed by the subcommand's dests (other
    than config), each value held to the type of the default it replaces."""
    path = Path(ns.config)
    if not path.is_file():
        raise _UsageError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _UsageError(f"config file {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(loaded) - (set(vars(ns)) - {"command", "func", "config"}))
    if unknown:
        raise _UsageError(
            f"config file {path} has unknown keys: {', '.join(unknown)}"
        )
    values = {
        key: _config_value(path, key, value, sub.get_default(key))
        for key, value in loaded.items()
    }
    # argparse checks choices on flags, not on the defaults they replace;
    # its public API does not list a parser's actions, so _actions is read
    for action in sub._actions:
        choices = action.choices
        if action.dest in values and choices is not None and values[action.dest] not in choices:
            raise _UsageError(
                f"config file {path}: key {action.dest!r} must be one of "
                f"{', '.join(choices)}, got {json.dumps(values[action.dest])}"
            )
    return values


def _config_value(path: Path, key: str, value, default):
    """A config-file value, held to the type of the flag it stands for: the
    type of the flag's default (str where that is None). An int is accepted
    as a float; a bool is never read as a number."""
    want = str if default is None else type(default)
    if want is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # too large for a float: reported as a mismatch
            pass
    if type(value) is not want:
        raise _UsageError(
            f"config file {path}: key {key!r} must be {want.__name__}, "
            f"got {json.dumps(value)}"
        )
    return value


def _out_dir(o) -> Path:
    out = Path(o.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _input_trace(o):
    if o.trace is not None and o.demo is not None:
        raise _UsageError("give either --trace or --demo, not both")
    if o.demo is not None:
        return demo_trace(o.demo)
    if o.trace is None:
        raise _UsageError("an input trace is required: pass --trace or --demo")
    path = Path(o.trace)
    if not path.is_file():
        raise _UsageError(f"trace file not found: {path}")
    return load_trace(path)


def _input_profile(o) -> CalibrationProfile:
    if o.profile is None:
        return CalibrationProfile()
    path = Path(o.profile)
    if not path.is_file():
        raise _UsageError(f"profile file not found: {path}")
    return load_profile(path)


def cmd_gen(o) -> int:
    if o.n < 1:
        raise _UsageError(f"--n must be >= 1, got {o.n}")
    trace = generate_gesture(o.kind, o.n, _subseed(o.seed, "gen"))
    path = _out_dir(o) / f"trace_{o.kind}.csv"
    save_trace(trace, path)
    print(f"wrote {len(trace)} samples to {path}")
    return EXIT_OK


def cmd_simulate(o) -> int:
    trace = _input_trace(o)
    profile = _input_profile(o)
    link_cfg = _config(
        LinkConfig,
        loss_probability=o.loss,
        latency=o.latency,
        seed=_subseed(o.seed, "link"),
    )
    modem_cfg = _config(
        ModemConfig,
        channel_attenuation=o.attenuation,
        noise_sigma=o.noise,
        seed=_subseed(o.seed, "modem"),
    )
    pir_at = None if o.no_pir else o.pir_at
    if pir_at is not None and pir_at < 0:
        raise _UsageError(f"--pir-at must be non-negative, got {pir_at}")

    result = run_pipeline(
        trace, profile=profile, link_cfg=link_cfg, modem_cfg=modem_cfg, pir_at=pir_at
    )

    out = _out_dir(o)
    log_path = out / "simulation.log"
    log_path.write_text("\n".join(result.log) + "\n", encoding="ascii")
    final_state = "ON" if result.appliance.powered else "OFF"
    # fifo_dropped (there is no transmit queue) and sensor_resets (ACC mode is
    # set once per run) are always 0; dropping the columns would change the
    # summary.csv format
    header = (
        "samples,frames_sent,frames_delivered,frames_lost,frames_corrupted,"
        "fifo_dropped,windows,actions_emitted,final_state,sensor_resets"
    )
    row = (
        f"{len(trace)},{result.frames_sent},{result.frames_delivered},"
        f"{result.frames_lost},{result.frames_corrupted},0,"
        f"{result.windows_classified},{len(result.actions)},{final_state},0"
    )
    (out / "summary.csv").write_text(header + "\n" + row + "\n", encoding="ascii")
    print(
        f"final_state={final_state} delivered={result.frames_delivered}/"
        f"{result.frames_sent} actions={len(result.actions)} log={log_path}"
    )
    return EXIT_OK


def cmd_ber(o) -> int:
    if o.points < 1:
        raise _UsageError(f"--points must be >= 1, got {o.points}")
    if o.bits < 1:
        raise _UsageError(f"--bits must be >= 1, got {o.bits}")
    if not 0.0 <= o.sigma_min <= o.sigma_max < math.inf:
        raise _UsageError(
            f"invalid sweep range [{o.sigma_min}, {o.sigma_max}]"
        )
    sigmas = np.linspace(o.sigma_min, o.sigma_max, o.points)
    # one sub-seed for the whole sweep: common random numbers across points
    seed = _subseed(o.seed, "modem")
    rows = ["noise_sigma,ber"]
    for sigma in sigmas:
        cfg = ModemConfig(noise_sigma=float(sigma), seed=seed)
        rate = measure_ber(cfg, o.bits)
        rows.append(f"{sigma:.6g},{rate:.6g}")
        print(rows[-1])
    path = _out_dir(o) / "ber.csv"
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
    return EXIT_OK


def cmd_classify(o) -> int:
    trace = _input_trace(o)
    profile = _input_profile(o)
    if o.window < 0:
        raise _UsageError(f"--window must be >= 0, got {o.window}")
    if o.window:
        profile = replace(profile, window_size=o.window)
    w = profile.window_size
    if len(trace) < w:
        raise _UsageError(
            f"trace has {len(trace)} samples, shorter than one window of {w}"
        )
    for i in range(len(trace) // w):
        win = trace.samples[i * w : (i + 1) * w]
        z_mean = float(window_mean(win, "z"))
        y_mean = float(window_mean(win, "y"))
        verdict = classify_window(win, profile)
        print(
            f"window {i}: z_mean={z_mean:.2f} y_mean={y_mean:.2f}"
            f" action={verdict.value}"
        )
    return EXIT_OK


def _load_labeled_dir(dir_path: str, label: GestureKind, flag: str):
    path = Path(dir_path)
    if not path.is_dir():
        raise _UsageError(f"{flag} is not a directory: {path}")
    files = sorted(path.glob("*.csv"))
    if not files:
        raise _UsageError(f"no .csv traces in {path}")
    return [load_trace(f, label=label) for f in files]


def cmd_calibrate(o) -> int:
    if o.on_dir is None or o.off_dir is None:
        raise _UsageError("calibrate needs --on-dir and --off-dir")
    on_traces = _load_labeled_dir(o.on_dir, GestureKind.VERTICAL_UP_DOWN, "--on-dir")
    off_traces = _load_labeled_dir(o.off_dir, GestureKind.HORIZONTAL, "--off-dir")
    profile = calibrate(on_traces, off_traces, o.margin_lo, o.margin_hi)
    path = _out_dir(o) / "profile.json"
    save_profile(profile, path)
    print(
        f"on_band={list(profile.on_band)} off_band={list(profile.off_band)}"
        f" -> {path}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if ns.config:
            # precedence defaults < config < flags: the file's keys replace
            # the subcommand's defaults, and the flags are parsed again
            sub = commands[ns.command]
            sub.set_defaults(**_config_defaults(ns, sub))
            ns = parser.parse_args(argv)
        return ns.func(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        TraceFormatError,
        CalibrationError,
        ProfileError,
        ProtocolError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
