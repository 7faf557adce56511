"""A failing hypothesis test fails alone: the rest of the session still runs."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(x):
    assert x != x
'''

PASSING = '''
def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report imports libcst, which warns with a
    # DeprecationWarning; pyproject.toml turns those into errors, and an
    # error there ends the session with INTERNALERROR.
    (tmp_path / "test_a_failing.py").write_text(FAILING)
    (tmp_path / "test_b_passing.py").write_text(PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert proc.returncode == 1, output
