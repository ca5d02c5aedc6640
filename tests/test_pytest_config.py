"""The repository's pytest settings, run on a throwaway suite in a subprocess.

Every warning is an error (``filterwarnings`` in ``pyproject.toml``).  A
failing hypothesis test must still be reported as a failure, and must not
abort the session before the tests after it are reported.
"""

import subprocess
import sys
from pathlib import Path

_INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

_SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two_failures.py").write_text(_SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two_failures.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "2 failed" in out, out
    assert run.returncode == 1, out
