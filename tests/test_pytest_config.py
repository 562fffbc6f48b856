"""The pytest configuration in pyproject.toml, run on a suite of its own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_leaves_the_rest_running(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised by
    # Hypothesis's failure report into an INTERNALERROR that ends the run
    # before the passing test.
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
