"""Traced run: per-layer busy time, work counts and peak memory.

The layers are the library's modules. Spans are recorded from the benchmark
around calls into their public functions; nothing inside the program is
instrumented. ``execute`` is replayed through the calls it makes:
``build_basic_scheme``, ``suite.map_fn`` per planned value, ``build_signals``,
``run_shuffle``, ``decode_node``, ``suite.reduce_fn`` and ``oracle``. The
replay must reproduce the untraced run's outputs and exact loads, so the
per-layer numbers describe the program that ``run_s`` times.

Everything runs in one thread with no I/O, so no layer ever waits; waiting
time is recorded as zero in each traced result's layer table.
"""

from __future__ import annotations

import gc
import statistics
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from d3c import (
    BitString,
    LoadReport,
    MulticastSignal,
    SchemeParams,
    binomial,
    build_basic_scheme,
    build_curve,
    build_signals,
    decode_node,
    make_params,
    minimal_files,
    plan_for_target,
    query_load,
    run_shuffle,
)
from d3c.engine import default_suite, execute, generate_corpus, oracle

import workloads as wls

MODULES = ("scheme", "composer", "analytics", "engine", "shuffle", "cli")
# Workloads whose corpus is built in set-up, not in the timed run.
SETUP_CORPUS = ("coded_shuffle", "composite_mix")


class Spans:
    """Busy time and call count per span name (``<module>.<call>``)."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()

    @contextmanager
    def span(self, name: str, sample: bool = True):
        start = perf_counter()
        try:
            yield
        finally:
            self.busy[name] += perf_counter() - start
            self.calls[name] += 1


class MemorySpans(Spans):
    """Largest tracemalloc peak of a call, per module.

    Tracing is on only inside sampled spans, so a peak counts just what the
    call allocates. Only the first group's calls and the first node's
    per-node calls are sampled, since the others repeat the same work; the
    oracle and the ``build_signals`` that ``run_shuffle`` repeats are not.
    Tracing every call of ``composite_mix`` takes minutes.
    """

    def __init__(self):
        super().__init__()
        self.peak: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str, sample: bool = True):
        if not sample:
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            module = name.split(".")[0]
            self.peak[module] = max(self.peak[module], peak)


@dataclass(frozen=True)
class Replay:
    outputs: tuple[str, ...]
    measured: LoadReport
    first_mismatch: dict | None


def _flip_one_bit(signal: MulticastSignal) -> MulticastSignal:
    payload = BitString(signal.payload.value ^ 1, signal.payload.length)
    return MulticastSignal(signal.sender, signal.group, payload)


def replay_execute(
    groups, corpus, suite, K: int, spans: Spans, counts: Counter, *, fault=False
) -> Replay:
    """``execute`` through its public calls, for (scheme, file offset) groups.

    With ``fault``, one bit of the first signal is flipped in the copy
    delivered to a node that decodes with it.
    """
    nodes = range(1, K + 1)
    N, T = corpus.N, suite.iva_bits
    stored = {k: set() for k in nodes}
    collected: dict[int, dict] = {k: {} for k in nodes}
    wire_bits = evaluations = 0
    for index, (scheme, offset) in enumerate(groups):
        sample = index == 0  # groups repeat the same kinds of calls
        p = scheme.params
        counts["combinatorics.batches"] += binomial(K, p.r) * binomial(p.r, p.g)
        counts["combinatorics.groups"] += binomial(K, p.r + 1) * binomial(p.r + 1, p.g + 1)
        computed = {}
        for k in nodes:
            stored[k].update(offset + n for n in scheme.storage[k])
            planned = scheme.compute_own[k] + scheme.compute_coded[k]
            counts["scheme.planned_values"] += len(planned)
            store = {}
            with spans.span("engine.map", sample=sample and k == 1):
                for iva in planned:
                    n = offset + iva.file
                    store[iva] = suite.map_fn(iva.target, n, corpus.files[n - 1])
            evaluations += len(store)
            computed[k] = store

        with spans.span("shuffle.encode", sample=False):  # run_shuffle repeats it
            signals = build_signals(scheme, computed)
        with spans.span("shuffle.run", sample=sample):
            delivered, bits = run_shuffle(scheme, computed)
        wire_bits += bits
        counts["shuffle.signals"] += len(signals)
        counts["shuffle.payload_bits"] += sum(s.bit_length for s in signals)
        counts["shuffle.deliveries"] += sum(len(store) for store in delivered.values())
        if fault and signals:
            s = signals[0]
            receiver = next(i for i in s.group.j if i != s.sender)
            key = (s.sender, s.group)
            delivered[receiver][key] = _flip_one_bit(delivered[receiver][key])
            fault = False

        for k in nodes:
            with spans.span("shuffle.decode", sample=sample and k == 1):
                values = decode_node(k, scheme, computed[k], delivered[k])
            counts["shuffle.decoded_values"] += len(values) - len(scheme.storage[k])
            for local_n, value in values.items():
                collected[k][offset + local_n] = value

    outputs = []
    for k in nodes:
        values = [collected[k][n] for n in range(1, N + 1)]
        with spans.span("engine.reduce", sample=k == 1):
            outputs.append(suite.reduce_fn(k, values))
    with spans.span("engine.oracle", sample=False):  # 6x slower under tracemalloc
        truth = oracle(corpus, suite, K)
    counts["engine.map_evals"] += evaluations
    counts["engine.oracle_evals"] += N * K
    first_mismatch = None
    for k, (got, want) in enumerate(zip(outputs, truth), start=1):
        if got != want:
            first_mismatch = {
                "node": k,
                "expected": want.to_bytes().hex(),
                "actual": got.to_bytes().hex(),
            }
            break
    measured = LoadReport(
        storage_space=Fraction(sum(len(stored[k]) for k in nodes), N),
        computation_load=Fraction(evaluations, N * K),
        communication_load=Fraction(wire_bits, N * K * T),
    )
    return Replay(tuple(o.to_bytes().hex() for o in outputs), measured, first_mismatch)


def replay_problems(label: str, replay: Replay, report) -> list[str]:
    """Differences between a replay and the ``ExecutionReport`` of ``execute``."""
    problems = []
    if replay.first_mismatch is not None:
        problems.append(f"{label}: replay output differs from the oracle: {replay.first_mismatch}")
    if replay.outputs != report.outputs:
        problems.append(f"{label}: replay reduce outputs differ from execute's")
    if replay.measured != report.measured:
        problems.append(f"{label}: replay loads {replay.measured} != execute's {report.measured}")
    return problems


# ---------------------------------------------------------- per-workload replays
# Each compares its result with ``reference`` and returns the problems.


def _coded_replay(inp, reference, spans, counts) -> list[str]:
    c = wls.CODED
    with spans.span("engine.corpus"):
        corpus = generate_corpus(c["N"], c["F"], inp.seed)
    with spans.span("scheme.build"):
        scheme = wls.coded_scheme()
    replay = replay_execute([(scheme, 0)], corpus, inp.suite, c["K"], spans, counts)
    return replay_problems("coded_shuffle", replay, reference)


def _composite_replay(inp, reference, spans, counts) -> list[str]:
    c = wls.COMPOSITE
    with spans.span("engine.corpus"):
        corpus = generate_corpus(c["N"], c["F"], inp.seed)
    with spans.span("composer.minimal_files"):
        N = minimal_files(c["K"], c["r"], c["c"])
    with spans.span("composer.plan"):
        plan = plan_for_target(c["K"], N, c["r"], c["c"])
    counts["composer.groups"] += len(plan.groups)
    groups = []
    for i, sp in enumerate(plan.groups):
        params = SchemeParams(K=c["K"], N=sp.file_count, F=c["F"], T=c["T"], r=sp.r, g=sp.g)
        with spans.span("scheme.build", sample=i == 0):
            groups.append((build_basic_scheme(params), sp.first_file - 1))
    replay = replay_execute(groups, corpus, inp.suite, c["K"], spans, counts)
    return replay_problems("composite_mix", replay, reference)


def _grid_replay(inp, reference, spans, counts) -> list[str]:
    rows = []
    for K, r, cs in inp.targets:
        with spans.span("analytics.curve"):
            curve = build_curve(K, r)
        for i, c in enumerate(cs):
            with spans.span("analytics.query", sample=i == 0):
                L = query_load(curve, c)
            with spans.span("composer.minimal_files", sample=i == 0):
                N = minimal_files(K, r, c)
            with spans.span("composer.plan", sample=i == 0):
                plan = plan_for_target(K, N, r, c)
            counts["composer.groups"] += len(plan.groups)
            rows.append((K, r, c, L, plan))
    counts["analytics.plan_gaps"] += wls.plan_gaps(rows)
    if wls.grid_digest(rows) != wls.grid_digest(reference):
        return ["plan_grid: traced plans differ from the untraced run's"]
    return []


def _verify_cases():
    for K in range(2, wls.VERIFY_K + 1):
        for r in range(1, K):
            for g in range(1, r + 1):
                yield K, r, g, binomial(K, r) * binomial(r, g)


def _execute_reference(wl, inp):
    """One untimed run that also writes the signal trace, which is checked."""
    sink = wls.TraceDigest()
    report = wl.run(inp, sink)
    return report, wl.check(inp, report) + wls.check_trace(inp, report, sink, wl.name)


def _grid_reference(wl, inp):
    rows = wl.run(inp)
    return rows, wl.check(inp, rows)


def _verify_reference(wl, inp):
    """``execute`` reports for the schemes ``d3c verify`` runs, same inputs."""
    reports = {}
    for K, r, g, N in _verify_cases():
        scheme = build_basic_scheme(SchemeParams(K=K, N=N, F=16, T=4 * g, r=r, g=g))
        reports[K, r, g] = execute(scheme, generate_corpus(N, 16, inp.seed), default_suite(4 * g))
    failing = [key for key, report in reports.items() if not report.verification_passed]
    return reports, [f"execute failed verification at (K, r, g) = {key}" for key in failing]


def _verify_replay(inp, reference, spans, counts) -> list[str]:
    problems = []
    for K, r, g, N in _verify_cases():
        with spans.span("engine.corpus"):
            corpus = generate_corpus(N, 16, inp.seed)
        with spans.span("scheme.build"):
            scheme = build_basic_scheme(SchemeParams(K=K, N=N, F=16, T=4 * g, r=r, g=g))
        replay = replay_execute([(scheme, 0)], corpus, default_suite(4 * g), K, spans, counts)
        problems += replay_problems(f"verify_matrix K={K} r={r} g={g}", replay, reference[K, r, g])
    return problems


# name -> (replay, reference); the reference is computed once, untimed.
REPLAYS = {
    "coded_shuffle": (_coded_replay, _execute_reference),
    "composite_mix": (_composite_replay, _execute_reference),
    "plan_grid": (_grid_replay, _grid_reference),
    "verify_matrix": (_verify_replay, _verify_reference),
}


def fault_self_test() -> list[str]:
    """Replay a small scheme with one delivered bit flipped.

    Returns the problems the benchmark's gate finds; the caller counts the
    run as failed when the list is non-empty, which it must be.
    """
    scheme = build_basic_scheme(make_params(5, 20, 2, 1))
    corpus = generate_corpus(20, 64, wls.DEFAULT_SEED)
    suite = default_suite(scheme.params.T)
    reference = execute(scheme, corpus, suite)
    replay = replay_execute([(scheme, 0)], corpus, suite, 5, Spans(), Counter(), fault=True)
    return replay_problems("fault self-test", replay, reference)


# ------------------------------------------------------------------ traced run


def _layer_seconds(name: str, busy: dict, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one replay; deliver excludes the encode inside it."""
    t = {
        "shuffle.encode_s": busy["shuffle.encode"],
        "shuffle.deliver_s": busy["shuffle.run"] - busy["shuffle.encode"],
        "shuffle.decode_s": busy["shuffle.decode"],
        "engine.map_s": busy["engine.map"],
        "engine.reduce_s": busy["engine.reduce"],
        "engine.oracle_s": busy["engine.oracle"],
        "scheme.build_s": busy["scheme.build"],
        "composer.plan_s": busy["composer.plan"],
        "composer.minimal_files_s": busy["composer.minimal_files"],
        "analytics.curve_s": busy["analytics.curve"],
        "analytics.query_s": busy["analytics.query"],
    }
    in_run = sum(t.values())
    if name not in SETUP_CORPUS:
        in_run += busy["engine.corpus"]
    t["engine.corpus_s"] = busy["engine.corpus"]
    t["engine.other_s"] = run_s - in_run
    t["cli.main_s"] = run_s if name == "verify_matrix" else 0.0
    return t


def run_traced(wl, inp, seconds: float):
    """One untimed reference run (for execute workloads it also checks the
    signal trace), then untraced runs alternating with traced replays for
    ``seconds`` (at least once each), then one memory pass and the fault
    self-test.

    Returns (metrics, attempted, failed, problems, detail); ``problems``
    also holds what the memory pass and the self-test found.
    """
    replay_fn, reference_fn = REPLAYS[wl.name]
    per_rep: dict[str, list[float]] = defaultdict(list)
    reference, problems = reference_fn(wl, inp)
    attempted, failed = 1, int(bool(problems))
    busy_total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    start = perf_counter()
    while not per_rep or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        result = wl.run(inp)
        run_s = perf_counter() - t0
        run_problems = wl.check(inp, result)
        del result
        spans, counts = Spans(), Counter()
        gc.collect()
        t0 = perf_counter()
        run_problems += replay_fn(inp, reference, spans, counts)
        traced_s = perf_counter() - t0
        attempted, failed = attempted + 1, failed + bool(run_problems)
        problems += run_problems
        for metric, value in _layer_seconds(wl.name, spans.busy, run_s).items():
            per_rep[metric].append(value)
        setup_work = spans.busy["engine.corpus"] if wl.name in SETUP_CORPUS else 0.0
        per_rep["trace.overhead_s"].append(traced_s - setup_work - run_s)
        for name, busy in spans.busy.items():
            busy_total[name] += busy
        calls += spans.calls

    metrics = {name: (statistics.median(values), "s") for name, values in per_rep.items()}
    for name in (
        "shuffle.signals",
        "shuffle.deliveries",
        "shuffle.decoded_values",
        "engine.map_evals",
        "engine.oracle_evals",
        "scheme.planned_values",
        "combinatorics.batches",
        "combinatorics.groups",
        "composer.groups",
        "analytics.plan_gaps",
    ):
        metrics[name] = (counts[name], "count")
    payload = counts["shuffle.payload_bits"]
    metrics["shuffle.payload_bits"] = (payload, "bits")
    reports = reference.values() if wl.name == "verify_matrix" else [reference]
    overhead = sum(getattr(report, "overhead_bits", 0) for report in reports)
    metrics["shuffle.payload_share"] = (payload / (payload + overhead) if payload else 0.0, "ratio")

    memory_start = perf_counter()
    mem = MemorySpans()
    run_problems = replay_fn(inp, reference, mem, Counter())
    if wl.name == "verify_matrix":
        with mem.span("cli.main"):
            exit_code = wl.run(inp)
        run_problems += wl.check(inp, exit_code)
    attempted, failed = attempted + 1, failed + bool(run_problems)
    problems += run_problems
    for module in MODULES:
        metrics[f"{module}.peak_mb"] = (mem.peak[module] / 2**20, "MB")
    memory_pass_s = perf_counter() - memory_start

    fault_problems = fault_self_test()
    metrics["selftest.failed_frac"] = (float(bool(fault_problems)), "ratio")
    if not fault_problems:
        problems.append("fault self-test: a flipped signal bit went undetected")

    reps = len(per_rep["trace.overhead_s"])
    layers = {
        name: {"busy_s": busy / reps, "wait_s": 0.0, "calls": calls[name] // reps}
        for name, busy in sorted(busy_total.items())
    }
    detail = {
        "reps": reps,
        "memory_pass_s": memory_pass_s,
        "layers": layers,
        "fault_self_test": fault_problems[:2],
    }
    return metrics, attempted, failed, problems, detail
