"""The repository's pytest configuration, run on throwaway test files.

Warnings are errors, yet one failing test must not end the session: each
case runs pytest in a subprocess under the repository's pyproject.toml, on
a failing test followed by a passing one in a later file, and checks that
the session reports both and exits 1 (tests failed), not 3 (INTERNALERROR).
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING_GIVEN = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
"""

OWN_DEPRECATION = """\
import warnings


def test_fails():
    warnings.warn("this helper is deprecated", DeprecationWarning)
"""

PASSING = """\
def test_passes():
    pass
"""


def run_session(tmp_path, failing):
    (tmp_path / "test_a_fails.py").write_text(failing)
    (tmp_path / "test_b_passes.py").write_text(PASSING)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("failing, reason", [
    # a failing @given test makes Hypothesis import libcst, whose import
    # warned as an error inside a plugin hook
    (FAILING_GIVEN, "assert 0 < 0"),
    # a DeprecationWarning of our own is still an error
    (OWN_DEPRECATION, "DeprecationWarning: this helper is deprecated"),
], ids=["hypothesis", "own_deprecation"])
def test_a_failing_test_fails_alone(tmp_path, failing, reason):
    proc = run_session(tmp_path, failing)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "PASSED test_b_passes.py::test_passes" in out
    assert "FAILED test_a_fails.py::test_fails" in out
    assert reason in out
