import ast
import importlib
import os
import shutil
import subprocess
import sys
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
