"""Every demo script runs to completion and prints the bytes recorded in
``demo_golden.json``, and the README's library quick start runs as written.

The golden holds the sha256 of each demo's stdout. Regenerate it, only after
a deliberate output change, with

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = Path(__file__).with_name("demo_golden.json")


def stdout_digest(demo: Path) -> str:
    """sha256 of the demo's stdout; the demo must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return hashlib.sha256(done.stdout.encode()).hexdigest()


def test_demos_exist():
    assert DEMOS  # a wrong path would otherwise collect no demo at all


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert stdout_digest(demo) == json.loads(DIGESTS.read_text())[demo.name]


def test_every_demo_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == [demo.name for demo in DEMOS]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


if __name__ == "__main__":
    digests = {demo.name: stdout_digest(demo) for demo in DEMOS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
