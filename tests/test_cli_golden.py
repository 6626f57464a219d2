"""Byte-identical CLI output: each case's exit code, stdout, stderr and
``--out`` file bytes hash to the digest recorded in ``cli_golden.json``.

Every case runs in-process twice: once writing to stdout, and once with its
output redirected by ``--out`` into a temporary directory. The cases cover
every README CLI example, the JSON form of each table command and a set of
refusals (exit 1 and exit 2).

Regenerate the digests, only after a deliberate output change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from d3c.cli import main

DIGESTS = Path(__file__).with_name("cli_golden.json")

CASES = {
    # README examples
    "tradeoff-curve": "tradeoff --K 10 --r 4.5",
    "tradeoff-cstar": "tradeoff --K 10 --cstar-sweep",
    "simulate-composite": "simulate --K 3 --N 6 --r 2 --c 4/3 --T 8",
    "simulate-g": "simulate --K 4 --N 24 --r 2 --g 1",
    "simulate-cdc": "simulate --K 3 --N 6 --r 2 --cdc",
    "compare": "compare --K 3 --N 6 --r 2 --g 2 --cdc --T 8",
    "verify": "verify --K 6",
    "sweep": "sweep --K 10 --r 2,4.5,7 --resolution 20",
    "inspect": "inspect --K 3 --N 6 --r 2 --g 2 --T 8",
    # JSON forms of the table commands
    "tradeoff-curve-json": "tradeoff --K 10 --r 4.5 --format json",
    "tradeoff-cstar-json": "tradeoff --K 10 --cstar-sweep --format json",
    "compare-json": "compare --K 3 --N 6 --r 2 --g 2 --cdc --T 8 --format json",
    "verify-json": "verify --K 4 --format json",
    # other forms
    "tradeoff-samples": "tradeoff --K 10 --r 4.5 --resolution 2",
    "compare-pair": "compare --K 4 --N 24 --r 2 --g 1,2 --cdc --B 12 --seed 3",
    "sweep-execute": "sweep --K 4 --r 2.5 --c 1,5/4,3/2,2 --execute",
    "inspect-cdc": "inspect --K 4 --N 6 --r 2 --cdc",
    "simulate-composite-audit": "simulate --K 4 --N 24 --r 5/2 --c 2 --B 16 --seed 9",
    # refusals
    "no-command": "nonsense",
    "tradeoff-no-r": "tradeoff --K 4",
    "tradeoff-bad-samples": "tradeoff --K 10 --r 4.5 --resolution -1",
    "tradeoff-json-bad-samples": "tradeoff --K 10 --r 4.5 --resolution -1 --format json",
    "simulate-infeasible": "simulate --K 3 --N 5 --r 2 --c 4/3",
    "simulate-over-budget": "simulate --K 10 --N 10000000 --r 2 --g 1",
    "compare-g-over-r": "compare --K 4 --N 24 --r 2 --g 1,5",
    "compare-nothing": "compare --K 3 --N 6 --r 2",
    "compare-infeasible": "compare --K 4 --N 23 --r 2 --g 1 --cdc",
    "verify-over-budget": "verify --K 11",
    "sweep-bad-resolution": "sweep --K 10 --r 2 --resolution 1",
    "inspect-overflow": "inspect --K 70 --N 6 --r 35 --g 1",
    "inspect-no-scheme": "inspect --K 3 --N 6 --r 2",
}


def _run(argv: list[str], out: Path | None) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    if out is not None:
        argv = [*argv, "--out", str(out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    data = out.read_bytes() if out is not None and out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), data


def digest(name: str, workdir: Path) -> str:
    """sha256 over both runs of one case: to stdout, then with --out."""
    argv = CASES[name].split()
    runs = (_run(argv, None), _run(argv, workdir / f"{name}.out"))
    return hashlib.sha256(repr(runs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_digest(name, tmp_path):
    assert digest(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


def test_every_case_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


def test_cases_cover_every_readme_cli_example():
    """Each ``d3c ...`` line of the sh block under README's "## CLI", its
    ``--out PATH`` removed, is the argument string of a case."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.removeprefix("d3c ") for line in block.splitlines() if line.startswith("d3c ")]
    examples = [re.sub(r" --out \S+", "", line) for line in examples]
    assert examples and [e for e in examples if e not in CASES.values()] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = {name: digest(name, Path(workdir)) for name in sorted(CASES)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
