"""The command line's exit contract as one property over `cli.main`.

Every run ends in exactly one of three ways: exit 0 with every output file
written; exit 2 with one `error:` line naming a flag, a config key or the
config file, and nothing written; or exit 1 with one `error:` line naming
the input file at fault (a trace by its line, where it has one), and
nothing written. No run prints a traceback. The argvs are drawn per
subcommand from its flags and near-valid values, and the trace, profile
and config files from near-valid texts, under int()'s default digit limit
and with the limit off.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from wristlink.cli import main

# number spellings near valid ones: Python's int() and float() read "0_1",
# "١٢" and padded text, the digit limit decides on long integers
NUMBERS = [
    "0", "1", "3", "16", "-1", "0.5", "2.5", "1e3", "nan", "inf", "-inf", "+1",
    "010", "0_1", "١٢", " 3", "3 ", "", "x", "9007199254740992", "7" * 700,
    "7" * 5000,
]
# values of the flags whose size sets the work: none names a large count
SIZES = [n for n in NUMBERS if n not in ("9007199254740992", "16")]
# the JSON texts of config values near valid ones, for any key
JSON_VALUES = [
    "0", "1", "3", "-1", "0.5", "2.5", "1e300", "1e400", "NaN", "true", "false", "null",
    '"3"', '"on"', '"vertical"', '"bogus"', "[1]", '{"a": 1}', "1" + "0" * 700, "9" * 5000,
    str(2**53),
]
JSON_SIZES = [v for v in JSON_VALUES if v not in ("1" + "0" * 700, str(2**53), "1e300")]
# texts of JSON documents that no reader takes whatever their keys
BAD_DOCUMENTS = [
    "[" * 2000 + "]" * 2000, "{" * 2000, "{nope", "[1, 2]", '"text"', "",
    '{"a": ' + "[" * 500 + "1" + "]" * 500 + "}", '{"seed": ' + "9" * 5000 + "}",
]

FLAGS = {
    "gen": {"--kind": ["vertical", "horizontal", "other", "sideways"], "--n": SIZES,
            "--seed": NUMBERS},
    "simulate": {"--loss": NUMBERS, "--latency": NUMBERS, "--noise": NUMBERS,
                 "--attenuation": NUMBERS, "--pir-at": NUMBERS, "--no-pir": None,
                 "--seed": NUMBERS},
    "ber": {"--sigma-min": NUMBERS, "--sigma-max": NUMBERS, "--points": SIZES,
            "--bits": SIZES, "--seed": NUMBERS},
    "classify": {"--window": NUMBERS},
    "calibrate": {"--margin-lo": NUMBERS, "--margin-hi": NUMBERS},
}
INPUT_FLAGS = {
    "gen": [], "ber": [], "simulate": ["--trace", "--demo", "--profile"],
    "classify": ["--trace", "--demo", "--profile"], "calibrate": ["--on-dir", "--off-dir"],
}
OUTPUTS = {"simulate": ["simulation.log", "summary.csv"], "ber": ["ber.csv"],
           "calibrate": ["profile.json"], "classify": []}
SIZE_KEYS = {"n", "points", "bits"}


def json_object(doc: dict) -> str:
    """The JSON object of keys and the JSON texts of their values."""
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in doc.items()) + "}"


@st.composite
def trace_texts(draw, kind="vertical"):
    """A trace CSV of a few rows, with at most one fault."""
    axis = {"vertical": 3, "horizontal": 2}.get(kind, 0)
    n = draw(st.sampled_from([0, 1, 3, 16, 24]))
    rows = []
    for i in range(n):
        counts = [draw(st.integers(180, 230)) for _ in range(3)]
        if axis:
            counts[axis - 1] = draw(st.integers(261, 284) if axis == 3 else st.integers(323, 381))
        rows.append(f"{20 * i},{counts[0]},{counts[1]},{counts[2]}")
    lines = ["t_ms,x,y,z", *rows]
    fault = draw(st.sampled_from(["none"] * 4 + ["row", "header", "wide", "bytes", "empty"]))
    if fault == "row":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(
            ["1,2,3", "5,1,2,9999", "0,1,2,3", "a,b,c,d", "9" * 20 + ",1,2,3", " 4,1,2,3"])))
    elif fault == "header":
        lines[0] = "T_MS,x,y,z"
    elif fault == "wide":
        lines.append(f"{20 * n},1,{9:0{5000}d},3")
    text = "\n".join(lines) + "\n"
    if fault == "empty":
        text = ""
    data = text.encode()
    return data.replace(b",", b"\xff,", 1) if fault == "bytes" else data


@st.composite
def profile_texts(draw):
    """A profile document near the saved one: a value or key changed, or a
    text no JSON reader takes."""
    doc = {"on_band": "[240, 286]", "off_band": "[323, 384]", "window_size": "4", "debounce_n": "2"}
    fault = draw(st.sampled_from(["none", "value", "unknown", "missing", "document", "bytes"]))
    if fault == "document":
        return draw(st.sampled_from(BAD_DOCUMENTS)).encode()
    if fault == "value":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(
            [*JSON_SIZES, "[1, " + "9" * 5000 + "]", "[[1], 2]", "[300, 200]", "1" + "0" * 700]))
    elif fault == "unknown":
        doc["note"] = "1"
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    data = json_object(doc).encode()
    return data.replace(b"2", b"\xc3\xa9", 1) if fault == "bytes" else data


@st.composite
def config_texts(draw, command):
    """A config document keyed by the subcommand's dests and a few others."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([*BAD_DOCUMENTS, "{\"seed\": 1}"])).encode()
    keys = [flag[2:].replace("-", "_") for flag in FLAGS[command]]
    keys += [flag[2:].replace("-", "_") for flag in INPUT_FLAGS[command]]
    doc = {}
    for key in draw(st.lists(st.sampled_from([*keys, "bogus", "config", "help"]), max_size=3)):
        doc[key] = draw(st.sampled_from(JSON_SIZES if key in SIZE_KEYS else JSON_VALUES))
    data = json_object(doc).encode()
    return data + b"\xff" if draw(st.integers(0, 9)) == 0 else data


def write_inputs(draw, command, root: Path) -> tuple[list[str], dict]:
    """The argv of one run below root, and the input files it names."""
    argv = [command]
    inputs = {}
    for flag, values in FLAGS[command].items():
        if draw(st.integers(0, 4)) == 0:
            if values is None:
                argv.append(flag)
            else:
                # half of the values are plain ones, which their owners may take
                argv += [flag, draw(st.sampled_from(values) | st.sampled_from(values[:4]))]
    if command in ("simulate", "classify"):
        source = draw(st.sampled_from(["demo", "trace", "trace", "both", "neither"]))
        if source in ("demo", "both"):
            argv += ["--demo", draw(st.sampled_from(["on", "off", "nothing", "bogus"]))]
        if source in ("trace", "both"):
            (root / "trace.csv").write_bytes(draw(trace_texts()))
            argv += ["--trace", draw(st.sampled_from(["trace.csv"] * 5 + ["missing.csv"]))]
            inputs["trace"] = argv[-1]
        if draw(st.integers(0, 2)) == 0:
            (root / "profile.json").write_bytes(draw(profile_texts()))
            argv += ["--profile", draw(st.sampled_from(["profile.json"] * 5 + ["trace"]))]
            inputs["profile"] = argv[-1]
    if command == "calibrate":
        for flag, kind in (("--on-dir", "vertical"), ("--off-dir", "horizontal")):
            name = flag[2:]
            (root / name).mkdir()
            for i in range(draw(st.integers(0, 2))):
                (root / name / f"{kind}{i}.csv").write_bytes(draw(trace_texts(kind)))
            if draw(st.integers(0, 5)):
                argv += [flag, draw(st.sampled_from([name] * 5 + ["missing"]))]
    if draw(st.integers(0, 2)) == 0:
        (root / "config.json").write_bytes(draw(config_texts(command)))
        argv += ["--config", draw(st.sampled_from(["config.json"] * 5 + ["nope.json"]))]
        inputs["config"] = argv[-1]
    if command != "classify":
        argv += ["--out", "out"]
    return argv, inputs


def files_below(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")}


def config_keys(root: Path) -> list[str]:
    try:
        doc = json.loads((root / "config.json").read_bytes())
    except (OSError, ValueError, RecursionError):
        return []
    return list(doc) if isinstance(doc, dict) else []


def run_in(root: Path, argv: list[str], digit_limit: int):
    """main(argv) run in root under int()'s digit limit: its exit code,
    stdout, stderr and the files it wrote, which are then removed."""
    default_limit = sys.get_int_max_str_digits()
    cwd = os.getcwd()
    before = files_below(root)
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(root)
        sys.set_int_max_str_digits(digit_limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.set_int_max_str_digits(default_limit)
        os.chdir(cwd)
    # each new path, a file by its bytes and a directory by None
    written = {}
    for p in sorted(files_below(root) - before, reverse=True):  # a directory after its files
        if (root / p).is_dir():
            written[p] = None
            (root / p).rmdir()
        else:
            written[p] = (root / p).read_bytes()
            (root / p).unlink()
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_run_keeps_the_exit_contract(data):
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv, inputs = write_inputs(data.draw, command, root)
        code, out, err, written = run_in(root, argv, sys.get_int_max_str_digits())
        # what a run reads and writes does not depend on int()'s digit limit
        assert run_in(root, argv, 0) == (code, out, err, written)
        keys = config_keys(root)
    event(f"{command} exit {code}")
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if command == "gen":
            assert [p.name[:6] for p in written if p.suffix == ".csv"] == ["trace_"]
        for name in OUTPUTS.get(command, []):
            assert written.get(Path("out", name)), name
        return
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    assert written == {}, written
    line = errors[0]
    if code == 2:
        flags = [f for f in (*FLAGS[command], *INPUT_FLAGS[command], "--config") if f in line]
        named = [k for k in keys if repr(k) in line or f"keys: {k}" in line]
        assert flags or named or inputs.get("config", "?") in line, line
    else:
        assert code == 1, (code, err)
        files = [inputs.get("trace"), inputs.get("profile"), "on-dir", "off-dir"]
        assert any(f and f in line for f in files) or (
            # calibrate's bands come from all its traces together
            command == "calibrate" and "_band" in line
        ), line
        if ".csv: " in line:  # a trace names its line, unless it has no row
            assert ": line " in line or "header line" in line or "empty" in line, line
