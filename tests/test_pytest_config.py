"""The repository's pytest settings let a failing ``hypothesis`` property
report as one failure: every later test still runs and is counted."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTIES = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


@settings(database=None)
@given(st.integers())
def test_passes(x):
    assert isinstance(x, int)
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROPERTIES)
    argv = ["-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", "test_probe.py"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
