"""The repository's pytest settings report every test's outcome."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_HYPOTHESIS_TEST_FIRST = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_under_hypothesis(n):
    assert n != n


def test_warns_deprecation():
    warnings.warn("old api", DeprecationWarning)


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_is_reported_and_later_tests_still_run(tmp_path):
    (tmp_path / "test_three.py").write_text(FAILING_HYPOTHESIS_TEST_FIRST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "2 failed, 1 passed" in out, out  # any other DeprecationWarning still fails its test
    assert "FAILED test_three.py::test_fails_under_hypothesis" in out
    assert "FAILED test_three.py::test_warns_deprecation" in out
