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
    _ACTIONS,
    CalibrationProfile,
    _verdict_codes,
    calibrate,
    load_profile,
    save_profile,
)
from .controller import run_pipeline
from .demo import DEMO_NAMES, demo_trace
from .link import LinkConfig, ProtocolError
from .modem import ModemConfig, measure_ber
from .sensor import (INT_DIGITS_MAX, GestureKind, _write_lines, generate_gesture, load_trace,
                     quoted, read_json_object, save_trace)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# the flag that sets each parameter a library owner checks; the owner's
# ValueError message starts with the parameter's name and a space
_FIELD_FLAGS = {
    "loss_probability": "--loss",
    "latency": "--latency",
    "noise_sigma": "--noise",
    "channel_attenuation": "--attenuation",
    "n": "--n",
    "pir_at": "--pir-at",
    "n_bits": "--bits",
    "window_size": "--window",
}


class _UsageError(Exception):
    """Bad flag or configuration value; maps to exit code 2."""


def _owned(owner, *args, **kwargs):
    """Call the library owner of some flag values, whose checks are the only
    ones those values get: a ValueError naming a parameter that a flag sets
    is a usage error that names the flag, and any other propagates."""
    try:
        return owner(*args, **kwargs)
    except ValueError as exc:
        message = str(exc)
        for name, flag in _FIELD_FLAGS.items():
            if message.startswith(f"{name} "):
                raise _UsageError(f"{flag}: {message}") from None
        raise


def _number(kind):
    """The argparse type of an int or float flag, and of its config value's
    JSON text: kind's parse of an ASCII text with no "_", no surrounding
    whitespace and at most INT_DIGITS_MAX characters after its sign, all of
    which kind would take. argparse reports any other text, as any kind
    refuses, with exit 2 naming the flag; the bounds are the owner's."""

    def parse(text: str):
        plain = text.isascii() and "_" not in text and text == text.strip()
        try:
            if plain and len(text.lstrip("+-")) <= INT_DIGITS_MAX:
                return kind(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {quoted(text, 'a value')}")

    return parse


_INT, _FLOAT = _number(int), _number(float)


def _input_file(text: str) -> Path:
    """The argparse type of --trace, --profile and --config: a file's path."""
    path = Path(text)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"file not found: {quoted(text, 'a path')}")
    return path


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
        p.add_argument("--config", type=_input_file,
                       help="JSON config file keyed by dest names; flags win over its keys")

    def output(p):
        p.add_argument("--out", default="out", help="output directory (default %(default)s)")
        config(p)

    def common(p):
        p.add_argument("--seed", type=_INT, default=0, help="master random seed (default %(default)s)")
        output(p)

    def trace_input(p):
        p.add_argument("--trace", type=_input_file, help="input trace CSV")
        p.add_argument("--demo", choices=DEMO_NAMES, help="use a bundled demo trace")
        p.add_argument("--profile", type=_input_file, help="calibration profile JSON (default: built-in)")

    p = sub.add_parser("gen", help="generate a synthetic gesture trace")
    kinds = [k.value for k in GestureKind]
    p.add_argument("--kind", choices=kinds, default="vertical", help="gesture kind (default %(default)s)")
    p.add_argument("--n", type=_INT, default=64, help="sample count (default %(default)s)")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("simulate", help="run the full pipeline on a trace")
    trace_input(p)
    p.add_argument("--loss", type=_FLOAT, default=LinkConfig.loss_probability,
                   help="frame loss probability (default %(default)s)")
    p.add_argument("--latency", type=_INT, default=LinkConfig.latency,
                   help="per-frame latency in ms (default %(default)s)")
    p.add_argument("--noise", type=_FLOAT, default=ModemConfig.noise_sigma,
                   help="channel noise sigma (default %(default)s)")
    p.add_argument("--attenuation", type=_FLOAT, default=ModemConfig.channel_attenuation,
                   help="channel gain in (0,1] (default %(default)s)")
    p.add_argument("--pir-at", dest="pir_at", type=_INT, default=0,
                   help="presence trigger time ms (default %(default)s)")
    p.add_argument("--no-pir", dest="no_pir", action="store_true", help="never trigger presence")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ber", help="sweep channel noise and report bit error rates")
    p.add_argument("--sigma-min", dest="sigma_min", type=_FLOAT, default=0.0, help="(default %(default)s)")
    p.add_argument("--sigma-max", dest="sigma_max", type=_FLOAT, default=2.0, help="(default %(default)s)")
    p.add_argument("--points", type=_INT, default=5, help="sweep points (default %(default)s)")
    p.add_argument("--bits", type=_INT, default=10000, help="bits per point (default %(default)s)")
    common(p)
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("classify", help="print the verdict for each trace window")
    trace_input(p)
    p.add_argument("--window", type=_INT, default=0,
                   help="window length override, 0 = profile value (default %(default)s)")
    config(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("calibrate", help="fit decision bands from labeled trace directories")
    p.add_argument("--on-dir", dest="on_dir", help="directory of vertical-motion traces")
    p.add_argument("--off-dir", dest="off_dir", help="directory of horizontal-motion traces")
    p.add_argument("--margin-lo", dest="margin_lo", type=_INT, default=0, help="(default %(default)s)")
    p.add_argument("--margin-hi", dest="margin_hi", type=_INT, default=0, help="(default %(default)s)")
    output(p)  # calibration draws no random numbers: no --seed
    p.set_defaults(func=cmd_calibrate)

    return parser, sub.choices


def _config_defaults(ns: argparse.Namespace, sub: argparse.ArgumentParser) -> dict:
    """The defaults that the --config file of a parsed command line sets for
    its subcommand: a JSON object keyed by the subcommand's dests (other
    than config), each value read as its flag would read it."""
    # argparse's public API does not list a parser's actions, so _actions is read
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    try:
        loaded = read_json_object(ns.config, actions)
    except ValueError as exc:
        raise _UsageError(f"config file {ns.config}: {exc}") from None
    values = {}
    for key, value in loaded.items():
        try:
            values[key] = _config_value(actions[key], value)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"config file {ns.config}: key {key!r}: {exc}") from None
    return values


def _config_value(action: argparse.Action, value):
    """A config value as its flag reads it: a number flag's type applied to
    the value's JSON text, true or false for a switch, and for any other
    flag a string, given to its type if it has one; held to its choices. An
    array or object, which no flag takes, is quoted by its brackets."""
    text = {list: "[...]", dict: "{...}"}.get(type(value)) or json.dumps(value)
    if action.type in (_INT, _FLOAT):
        value = action.type(text)
    elif type(value) is not (bool if action.nargs == 0 else str):
        want = "true or false" if action.nargs == 0 else "a string"
        raise argparse.ArgumentTypeError(f"expected {want}, got {quoted(text, 'a value')}")
    elif action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {quoted(text, 'a value')} (choose from {', '.join(action.choices)})"
        )
    return value


def _out_dir(o) -> Path:
    out = Path(o.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _input_trace(o):
    if (o.trace is None) == (o.demo is None):
        raise _UsageError("give one input trace: --trace or --demo")
    return load_trace(o.trace) if o.demo is None else demo_trace(o.demo)


def _input_profile(o) -> CalibrationProfile:
    return CalibrationProfile() if o.profile is None else load_profile(o.profile)


def cmd_gen(o) -> int:
    trace = _owned(generate_gesture, o.kind, o.n, _subseed(o.seed, "gen"))
    path = _out_dir(o) / f"trace_{o.kind}.csv"
    save_trace(trace, path)
    print(f"wrote {len(trace)} samples to {path}")
    return EXIT_OK


def cmd_simulate(o) -> int:
    trace = _input_trace(o)
    profile = _input_profile(o)
    link_cfg = _owned(
        LinkConfig,
        loss_probability=o.loss,
        latency=o.latency,
        seed=_subseed(o.seed, "link"),
    )
    modem_cfg = _owned(
        ModemConfig,
        channel_attenuation=o.attenuation,
        noise_sigma=o.noise,
        seed=_subseed(o.seed, "modem"),
    )
    pir_at = None if o.no_pir else o.pir_at
    try:
        result = _owned(
            run_pipeline, trace, profile=profile, link_cfg=link_cfg, modem_cfg=modem_cfg, pir_at=pir_at
        )
    except ValueError as exc:  # no flag's: the fault of a trace file, which is empty
        raise ValueError(f"{o.trace}: {exc}") from None

    out = _out_dir(o)
    log_path = out / "simulation.log"
    _write_lines(log_path, result.log)
    final_state = "ON" if result.powered else "OFF"
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
    _write_lines(out / "summary.csv", [header, row])
    print(
        f"final_state={final_state} delivered={result.frames_delivered}/"
        f"{result.frames_sent} actions={len(result.actions)} log={log_path}"
    )
    return EXIT_OK


def cmd_ber(o) -> int:
    if o.points < 1:
        raise _UsageError(f"--points must be >= 1, got {o.points}")
    if not 0.0 <= o.sigma_min <= o.sigma_max < math.inf:
        raise _UsageError(
            f"--sigma-min, --sigma-max: invalid sweep range [{o.sigma_min}, {o.sigma_max}]"
        )
    try:
        sigmas = np.linspace(o.sigma_min, o.sigma_max, o.points)
    except MemoryError:
        raise _UsageError(f"--points: {o.points} sweep points do not fit in memory") from None
    # one sub-seed for the whole sweep: common random numbers across points
    seed = _subseed(o.seed, "modem")
    # every point is checked before one is measured
    try:
        cfgs = [ModemConfig(noise_sigma=float(sigma), seed=seed) for sigma in sigmas]
    except ValueError as exc:
        raise _UsageError(
            f"--sigma-max: {o.sigma_max} puts sweep points past the bound: {exc}"
        ) from None
    rows = ["noise_sigma,ber"]
    for cfg in cfgs:
        rate = _owned(measure_ber, cfg, o.bits)
        rows.append(f"{cfg.noise_sigma:.6g},{rate:.6g}")
        print(rows[-1])
    _write_lines(_out_dir(o) / "ber.csv", rows)
    return EXIT_OK


def cmd_classify(o) -> int:
    trace = _input_trace(o)
    profile = _input_profile(o)
    if o.window:
        profile = _owned(replace, profile, window_size=o.window)
        if len(trace) < o.window:
            raise _UsageError(
                f"--window: trace has {len(trace)} samples, shorter than one window of {o.window}"
            )
    w = profile.window_size
    # sliding verdict k covers samples k..k+w-1, on the columns the Trace
    # checked; a mean is one correctly rounded division of a plain int sum
    z, y = trace.z.tolist(), trace.y.tolist()
    for i, code in enumerate(_verdict_codes(trace.z, trace.y, profile)[::w].tolist()):
        window = slice(i * w, (i + 1) * w)
        z_mean, y_mean = sum(z[window]) / w, sum(y[window]) / w
        print(f"window {i}: z_mean={z_mean:.2f} y_mean={y_mean:.2f} action={_ACTIONS[code].value}")
    return EXIT_OK


def _load_labeled_dir(dir_path: str, label: GestureKind, flag: str):
    path = Path(dir_path)
    if not path.is_dir():
        raise _UsageError(f"{flag} is not a directory: {path}")
    files = sorted(path.glob("*.csv"))
    if not files:
        raise _UsageError(f"{flag}: no .csv traces in {path}")
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
    except (ValueError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
