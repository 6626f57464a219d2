"""Byte-identical runs: each executed run's report and signal trace hash to
the digests recorded in ``run_golden.json``.

Every run executes with a signal trace, and every report carries the file
and signal read counters of its audit. The digests are the sha256 of
``json.dumps(report.to_dict(), indent=2)`` and of the trace text. The runs
cover a basic d3c scheme at g = 1 and at g = r, the cdc baseline, one
composite plan on each of the routes e1, e2, e3 and clamp at its minimal
file count, and a basic scheme with T = 520 bits, which takes the
multi-block path of the keyed digest. Each run is checked twice: with the
oracle in-process, as these small runs compute it, and with the oracle
forked into a child as large runs do, so both placements give the same
bytes.

Regenerate the digests, only after a deliberate output change, with

    PYTHONPATH=src python tests/test_run_golden.py
"""

import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from d3c.composer import minimal_files, plan_for_target, safe_iva_bits
from d3c.engine import default_suite, execute, generate_corpus
from d3c.scheme import build_basic_scheme, build_cdc_scheme, make_params

DIGESTS = Path(__file__).with_name("run_golden.json")

# name -> (K, N, r, g, T) of a basic scheme; T None is the default size
BASIC = {
    "d3c-g1": (4, 24, 2, 1, None),
    "d3c-g-equals-r": (5, 20, 3, 3, None),
    "d3c-T520": (4, 12, 3, 2, 520),
}
# name -> (K, r, c) of a composite target; the route is the name's prefix
COMPOSITE = {
    "e1": (4, Fraction(7, 2), Fraction(5, 4)),
    "e2": (3, Fraction(9, 4), Fraction(9, 8)),
    "e3": (4, Fraction(7, 4), Fraction(11, 8)),
    "clamp": (3, Fraction(3, 2), Fraction(3, 2)),
}
RUNS = sorted([*BASIC, "cdc", *COMPOSITE])


def _plan(name: str):
    """The plan of one run, its file count and its value size."""
    if name in COMPOSITE:
        K, r, c = COMPOSITE[name]
        plan = plan_for_target(K, minimal_files(K, r, c), r, c)
        assert plan.route == name
        return plan, plan.N, safe_iva_bits(plan)
    if name == "cdc":
        scheme = build_cdc_scheme(4, 12, 2)
    else:
        K, N, r, g, T = BASIC[name]
        scheme = build_basic_scheme(make_params(K, N, r, g, T=T))
    return scheme, scheme.params.N, scheme.params.T


def digest(name: str) -> dict:
    plan, N, T = _plan(name)
    trace = io.StringIO()
    report = execute(plan, generate_corpus(N, 64, 7), default_suite(T), trace=trace)
    assert report.verification_passed
    return {
        "report": hashlib.sha256(json.dumps(report.to_dict(), indent=2).encode()).hexdigest(),
        "trace": hashlib.sha256(trace.getvalue().encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", RUNS)
def test_run_matches_recorded_digest(name):
    assert digest(name) == json.loads(DIGESTS.read_text())[name]


@pytest.mark.parametrize("name", RUNS)
def test_run_with_a_forked_oracle_matches_recorded_digest(name, forked_oracle):
    assert digest(name) == json.loads(DIGESTS.read_text())[name]
    assert len(forked_oracle) == 1


def test_every_run_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == RUNS


def test_default_runs_resolve_to_the_smallest_whole_byte_T():
    # byte_iva_bits(g, eta) at eta = 2 in each: g = 1 and g = 2 take 8 bits, g = 3 takes 24
    assert {name: _plan(name)[2] for name in ("d3c-g1", "d3c-g-equals-r", "cdc")} == {
        "d3c-g1": 8,
        "d3c-g-equals-r": 24,
        "cdc": 8,
    }


if __name__ == "__main__":
    digests = {name: digest(name) for name in RUNS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")
