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
    missing = [name for name in wristlink.__all__ if not hasattr(wristlink, name)]
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
