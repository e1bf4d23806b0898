import ast
import importlib
import inspect
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wristlink

REPO_ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_all_has_no_duplicates():
    assert len(wristlink.__all__) == len(set(wristlink.__all__))


def test_every_name_in_all_resolves():
    # each name is its defining submodule's own object, loaded on first use
    for name in wristlink.__all__:
        owner = importlib.import_module(f"wristlink.{wristlink._OWNER[name]}")
        assert getattr(wristlink, name) is getattr(owner, name), name
    namespace = {}
    exec("from wristlink import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wristlink.__all__)
    assert set(wristlink.__all__) <= set(dir(wristlink))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wristlink.no_such_name


def test_import_loads_only_the_submodules_used():
    # a fresh interpreter, so nothing another test imported is counted
    probe = (
        "import sys\n"
        "import wristlink\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('wristlink.')))\n"
        "from wristlink import Trace, generate_gesture, save_trace\n"
        "print(sorted(m for m in sys.modules if m.startswith('wristlink.')))\n"
    )
    src = str(Path(wristlink.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == ["[]", "['wristlink.sensor']"]


def test_every_tracer_patch_point_resolves():
    # perfbench/tracing.py replaces each (owner, attr) of its PATCH_POINTS
    # through vars(owner), so a name deleted from the package breaks the
    # benchmark's tracer even when nothing in the package calls it
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (points,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets if isinstance(target, ast.Name)]
        == ["PATCH_POINTS"]
    ]
    assert points
    missing = []
    for owner_path, attr, _ in points:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"wristlink.{module}")
        owner = getattr(owner, cls) if cls else owner
        if attr not in vars(owner):
            missing.append((owner_path, attr))
    assert missing == []


class _PerFunction(ast.NodeVisitor):
    """Collects in `found` the name of the innermost function around each
    node a subclass picks, or "<module>"."""

    def __init__(self):
        self.function, self.found = "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer


class _FileWrites(_PerFunction):
    """The function around each write_text or write_bytes call of a module,
    and around each open() call whose mode may write: one given and not a
    constant, or a constant holding w, a, x or +."""

    def visit_Call(self, node):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        # the mode is open(path, mode)'s second argument, Path.open(mode)'s first
        first = 1 if isinstance(node.func, ast.Name) else 0
        modes = node.args[first : first + 1] + [k.value for k in node.keywords if k.arg == "mode"]
        writes = any(
            not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
            for mode in modes
        )
        if name in ("write_text", "write_bytes") or name == "open" and writes:
            self.found.append(self.function)
        self.generic_visit(node)


def found_in_package(scanner) -> set:
    """(module file, function) of each node a _PerFunction scanner picks
    in the package's source."""
    found = set()
    for path in sorted((REPO_ROOT / "src" / "wristlink").glob("*.py")):
        scan = scanner()
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= {(path.name, function) for function in scan.found}
    return found


def test_one_writer_opens_output_files():
    # every output file is ASCII lines that sensor._write_lines writes, so a
    # second writer of the line format cannot creep back
    assert found_in_package(_FileWrites) == {("sensor.py", "_write_lines")}


class _SlotSetters(_PerFunction):
    """The function around each read of a descriptor's __set__ in a module."""

    def visit_Attribute(self, node):
        if node.attr == "__set__":
            self.found.append(self.function)
        self.generic_visit(node)


def test_one_builder_fills_slots_unchecked():
    # an unchecked record view (a trace row's AccelSample, a radio frame's
    # CodecFrame) is made only by sensor._view_builder's function, so a
    # second copy of the slot-setter trick cannot creep back
    assert found_in_package(_SlotSetters) == {("sensor.py", "_view_builder")}


@pytest.mark.parametrize(
    "module, name",
    [
        ("modem", "_send_gated"),
        ("classify", "_verdict_codes"),
        ("classify", "_emissions"),
        ("link", "LinkSimulator._stream"),
    ],
)
def test_unchecked_core_makes_no_check_call(module, name):
    # run_pipeline checks its arguments once; the cores it drives trust
    # that and call no check_* of their own (the modem stages _send_gated
    # calls still check what they are handed)
    core = importlib.import_module(f"wristlink.{module}")
    for part in name.split("."):
        core = getattr(core, part)
    tree = ast.parse(textwrap.dedent(inspect.getsource(core)))
    calls = {
        getattr(node.func, "attr", getattr(node.func, "id", ""))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert sorted(call for call in calls if call.startswith("check_")) == []


def test_failing_property_is_reported_under_the_warning_filters(tmp_path):
    # Hypothesis imports libcst to report a failing example; under this
    # project's filterwarnings that must fail the test, not abort the session
    pytest.importorskip("libcst")
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "Falsifying example" in proc.stdout
