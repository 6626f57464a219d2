"""The four benchmark workloads: inputs from a seed, one run, and its gate.

Each workload has three parts. ``setup(seed, workdir)`` builds the inputs
the library receives (corpus and function suite); the seed is the only
source of variation. ``run(inputs)`` is the timed call into the library;
planning and scheme construction belong to it. ``check(inputs, result)``
returns the list of problems with the result, empty when it is correct.
A run fails if it raises or if ``check`` finds a problem.

Exact loads are checked on every seed. Digests of outputs that depend on
the corpus are pinned for ``DEFAULT_SEED`` only; digests of outputs that do
not depend on it are pinned for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable

from d3c import (
    build_basic_scheme,
    build_curve,
    make_params,
    minimal_files,
    plan_for_target,
    query_load,
)
from d3c import cli
from d3c.engine import default_suite, execute, generate_corpus

DEFAULT_SEED = 0
PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

# coded_shuffle: one basic scheme, one value per block.
CODED = dict(K=10, N=1260, r=4, g=2, F=64, T=96)
CODED_LOADS = (Fraction(4), Fraction(8, 5), Fraction(3, 10))

# composite_mix: a fractional target on route e2 (four file groups). Its
# c = 9/5 lies below the saturation budget, so its loads are reachable.
COMPOSITE = dict(K=10, r=Fraction(9, 2), c=Fraction(9, 5), N=55440, F=8, T=24)
COMPOSITE_LOADS = (Fraction(9, 2), Fraction(9, 5), Fraction(7, 30))

VERIFY_K = 7
VERIFY_SCHEMES = 56  # (K', r, g) with 2 <= K' <= 7, 1 <= g <= r < K'


@dataclass(frozen=True)
class Inputs:
    seed: int
    corpus: Any = None
    suite: Any = None
    targets: tuple = ()
    out_path: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    items: int  # verified work items in one run, for work_per_s
    setup: Callable[[int, Path], Inputs]
    run: Callable[[Inputs], Any]
    check: Callable[[Inputs, Any], list[str]]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs_digest(outputs) -> str:
    return sha256_text(",".join(outputs))


def _load_problems(label: str, got, want) -> list[str]:
    return [] if tuple(got) == tuple(want) else [f"{label}: got {got}, want {want}"]


def check_report(report, loads, seed: int, pin_key: str) -> list[str]:
    """Gate shared by the two execute workloads."""
    problems = []
    if not report.verification_passed:
        problems.append(f"verification failed: {report.first_mismatch}")
    m = report.measured
    measured = (m.storage_space, m.computation_load, m.communication_load)
    problems += _load_problems("measured loads", measured, loads)
    p = report.predicted
    predicted = (p["storage_space"], p["computation_load"], p["communication_load"])
    problems += _load_problems("predicted loads", predicted, measured)
    if seed == DEFAULT_SEED and outputs_digest(report.outputs) != PINS[pin_key]["outputs"]:
        problems.append("reduce outputs differ from the pinned digest")
    return problems


class TraceDigest:
    """Write-only sink for ``execute(..., trace=...)``.

    Digests the JSON-lines signal trace as it is written instead of keeping
    it, so the check adds no memory to the run. ``full`` covers every field;
    ``shape`` leaves out the payload digests, which depend on the corpus.
    """

    def __init__(self):
        self._full = hashlib.sha256()
        self._shape = hashlib.sha256()
        self._pending = ""
        self.records = 0
        self.bits = 0

    def write(self, text: str) -> int:
        self._full.update(text.encode())
        *lines, self._pending = (self._pending + text).split("\n")
        for line in lines:
            record = json.loads(line)
            self.records += 1
            self.bits += record["bit_length"]
            del record["payload_digest"]
            self._shape.update(json.dumps(record, sort_keys=True).encode())
        return len(text)

    @property
    def full(self) -> str:
        return self._full.hexdigest()

    @property
    def shape(self) -> str:
        return self._shape.hexdigest()


def check_trace(inp: Inputs, report, sink: TraceDigest, pin_key: str) -> list[str]:
    """Gate on the signal trace of one ``execute`` run."""
    problems = []
    wire_bits = report.measured.communication_load * report.N * report.K * report.T
    if sink._pending or sink.records == 0 or sink.bits != wire_bits:
        problems.append(
            f"trace has {sink.records} records and {sink.bits} bits; want {wire_bits} bits"
        )
    if sink.shape != PINS[pin_key]["trace_shape"]:
        problems.append("signal trace shape differs from the pinned digest")
    if inp.seed == DEFAULT_SEED and sink.full != PINS[pin_key]["trace"]:
        problems.append("signal trace differs from the pinned digest")
    return problems


# --------------------------------------------------------------- coded_shuffle


def coded_scheme():
    c = CODED
    return build_basic_scheme(make_params(c["K"], c["N"], c["r"], c["g"], F=c["F"], T=c["T"]))


def _coded_setup(seed: int, workdir: Path) -> Inputs:
    return Inputs(seed, generate_corpus(CODED["N"], CODED["F"], seed), default_suite(CODED["T"]))


def _coded_run(inp: Inputs, trace=None):
    return execute(coded_scheme(), inp.corpus, inp.suite, trace=trace)


def _coded_check(inp: Inputs, report) -> list[str]:
    problems = check_report(report, CODED_LOADS, inp.seed, "coded_shuffle")
    curve_L = query_load(build_curve(CODED["K"], CODED["r"]), CODED_LOADS[1])
    return problems + _load_problems("curve load", (curve_L,), CODED_LOADS[2:])


# --------------------------------------------------------------- composite_mix


def composite_plan():
    c = COMPOSITE
    N = minimal_files(c["K"], c["r"], c["c"])
    return plan_for_target(c["K"], N, c["r"], c["c"])


def _composite_setup(seed: int, workdir: Path) -> Inputs:
    c = COMPOSITE
    return Inputs(seed, generate_corpus(c["N"], c["F"], seed), default_suite(c["T"]))


def _composite_run(inp: Inputs, trace=None):
    return execute(composite_plan(), inp.corpus, inp.suite, trace=trace)


def _composite_check(inp: Inputs, report) -> list[str]:
    problems = check_report(report, COMPOSITE_LOADS, inp.seed, "composite_mix")
    if report.plan.get("route") != "e2" or len(report.plan.get("groups", ())) != 4:
        problems.append(f"plan is not the four-group e2 mixture: {report.plan}")
    curve_L = query_load(build_curve(COMPOSITE["K"], COMPOSITE["r"]), COMPOSITE["c"])
    return problems + _load_problems("curve load", (curve_L,), COMPOSITE_LOADS[2:])


# ------------------------------------------------------------------- plan_grid


def grid_targets(seed: int) -> tuple:
    """(K, r, [c...]) blocks: K = 3..16, r = 1..K-1/4 in steps of 1/4, and 20
    evenly spaced c in [1, r]. The seed permutes the order only."""
    rng = Random(seed)
    blocks = []
    for K in range(3, 17):
        for q in range(4, 4 * K):
            r = Fraction(q, 4)
            cs = [1 + (r - 1) * Fraction(i, 19) for i in range(20)]
            rng.shuffle(cs)
            blocks.append((K, r, tuple(cs)))
    rng.shuffle(blocks)
    return tuple(blocks)


GRID_TARGETS = 9520


def _grid_setup(seed: int, workdir: Path) -> Inputs:
    return Inputs(seed, targets=grid_targets(seed))


def _grid_run(inp: Inputs):
    rows = []
    for K, r, cs in inp.targets:
        curve = build_curve(K, r)
        for c in cs:
            L = query_load(curve, c)
            N = minimal_files(K, r, c)
            rows.append((K, r, c, L, plan_for_target(K, N, r, c)))
    return rows


def grid_digest(rows) -> str:
    """Digest of every (K, r, c, N, route, groups, predicted_L), order-free."""
    lines = sorted(
        f"{K}|{r}|{c}|{p.N}|{p.route}|"
        + ";".join(f"{g.fraction}:{g.r}:{g.g}:{g.first_file}:{g.file_count}" for g in p.groups)
        + f"|{p.predicted_L}"
        for K, r, c, _, p in rows
    )
    return sha256_text("\n".join(lines))


def plan_gaps(rows) -> int:
    """Targets where the curve's load differs from the plan's prediction."""
    return sum(L != p.predicted_L for _, _, _, L, p in rows)


def _grid_check(inp: Inputs, rows) -> list[str]:
    problems = []
    if len(rows) != GRID_TARGETS:
        problems.append(f"planned {len(rows)} targets, want {GRID_TARGETS}")
    for K, r, c, L, p in rows:
        if p.predicted_r != r or (p.route != "clamp" and p.predicted_c != c):
            problems.append(
                f"plan misses target K={K} r={r} c={c}: {p.predicted_r}, {p.predicted_c}"
            )
        # At integer storage the curve and the plans agree; at fractional
        # storage some do not yet, and those are only counted (plan_gaps).
        if r.denominator == 1 and L != p.predicted_L:
            problems.append(f"curve {L} != plan {p.predicted_L} at K={K} r={r} c={c}")
    if grid_digest(rows) != PINS["plan_grid"]["plans"]:
        problems.append("plan tuples differ from the pinned digest")
    return problems[:5]


# --------------------------------------------------------------- verify_matrix


def verify_argv(inp: Inputs) -> list[str]:
    return ["verify", "--K", str(VERIFY_K), "--seed", str(inp.seed), "--out", str(inp.out_path)]


def _verify_setup(seed: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    return Inputs(seed, out_path=workdir / "verify_matrix.csv")


def _verify_run(inp: Inputs) -> int:
    inp.out_path.unlink(missing_ok=True)
    return cli.main(verify_argv(inp))


def _verify_check(inp: Inputs, exit_code: int) -> list[str]:
    problems = [] if exit_code == 0 else [f"d3c verify exited {exit_code}"]
    if not inp.out_path.is_file():
        return problems + ["d3c verify wrote no output"]
    text = inp.out_path.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != VERIFY_SCHEMES:
        problems.append(f"{len(rows)} rows, want {VERIFY_SCHEMES}")
    failing = [r for r in rows if r["pass"] != "true"]
    if failing:
        problems.append(f"rows not passing: {failing[:3]}")
    if sha256_text(text) != PINS["verify_matrix"]["csv"]:
        problems.append("verify matrix differs from the pinned digest")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coded_shuffle", CODED["N"] * CODED["K"], _coded_setup, _coded_run, _coded_check),
        Workload(
            "composite_mix",
            COMPOSITE["N"] * COMPOSITE["K"],
            _composite_setup,
            _composite_run,
            _composite_check,
        ),
        Workload("plan_grid", GRID_TARGETS, _grid_setup, _grid_run, _grid_check),
        Workload("verify_matrix", VERIFY_SCHEMES, _verify_setup, _verify_run, _verify_check),
    )
}
