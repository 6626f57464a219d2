"""Byte-identical planner output: every plan on a fixed target grid hashes to
the digest recorded in ``plan_golden.json``.

The grid is every (K, r, c) with 3 <= K <= 10, r on the 1/4 grid in [1, K)
and 20 evenly spaced c in [1, r]. For each target the digest covers
``minimal_files``, the plan bound to that many files (route, each group's
fraction, r, g, first file and file count, and the predicted r, c and L) and
``safe_iva_bits``.

Regenerate the digest, only after a deliberate planner change, with

    PYTHONPATH=src python tests/test_plan_golden.py
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from d3c.composer import minimal_files, plan_for_target, safe_iva_bits

DIGEST = Path(__file__).with_name("plan_golden.json")


def targets():
    for K in range(3, 11):
        for r in (Fraction(q, 4) for q in range(4, 4 * K)):
            for i in range(20):
                yield K, r, 1 + (r - 1) * Fraction(i, 19)


def plan_line(K: int, r: Fraction, c: Fraction) -> str:
    need = minimal_files(K, r, c)
    plan = plan_for_target(K, need, r, c)
    groups = " ".join(
        f"{sp.fraction}:{sp.r}:{sp.g}:{sp.first_file}:{sp.file_count}" for sp in plan.groups
    )
    return (
        f"{K} {r} {c} {need} {plan.route} [{groups}] "
        f"{plan.predicted_r} {plan.predicted_c} {plan.predicted_L} {safe_iva_bits(plan)}\n"
    )


def record() -> dict:
    h = hashlib.sha256()
    count = 0
    for target in targets():
        h.update(plan_line(*target).encode())
        count += 1
    return {"targets": count, "sha256": h.hexdigest()}


def test_plans_match_recorded_digest():
    assert record() == json.loads(DIGEST.read_text())


if __name__ == "__main__":
    golden = record()
    DIGEST.write_text(json.dumps(golden, indent=2) + "\n")
    sys.stdout.write(f"wrote the digest of {golden['targets']} plans to {DIGEST}\n")
