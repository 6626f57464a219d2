"""End-to-end runs: corpus, function suites, oracle verification, audit."""

import io
import json
from fractions import Fraction

import pytest

from d3c.combinatorics import binomial
from d3c.composer import minimal_files, plan_for_target, safe_iva_bits
from d3c.engine import (
    _NodeFiles,
    _Auditor,
    compare_schemes,
    default_suite,
    execute,
    generate_corpus,
    oracle,
)
from d3c.errors import ExecutionError, InvalidParameterError
from d3c.scheme import build_basic_scheme, build_cdc_scheme, make_params


def run_basic(K, N, r, g, *, T, seed=42, F=64, audit=False, trace=None):
    scheme = build_basic_scheme(make_params(K, N, r, g, F=F, T=T))
    corpus = generate_corpus(N, F, seed)
    return execute(scheme, corpus, default_suite(T), audit=audit, trace=trace)


def test_corpus_determinism_and_shape():
    a = generate_corpus(6, 64, 42)
    b = generate_corpus(6, 64, 42)
    assert a.files == b.files
    assert all(len(f) == 8 for f in a.files)
    assert generate_corpus(6, 64, 43).files != a.files
    assert generate_corpus(1, 8, 0).files[0] is not None


def test_corpus_rejects_bad_sizes():
    with pytest.raises(InvalidParameterError):
        generate_corpus(0, 64, 1)
    with pytest.raises(InvalidParameterError):
        generate_corpus(3, 12, 1)  # not byte aligned


def test_suite_determinism_and_sizes():
    suite = default_suite(12)
    a = suite.map_fn(1, 2, b"abc")
    assert a == suite.map_fn(1, 2, b"abc")
    assert a.length == 12
    assert suite.map_fn(2, 2, b"abc") != a
    assert suite.map_fn(1, 3, b"abc") != a
    wide = default_suite(520)  # larger than one digest block
    assert wide.map_fn(1, 1, b"x").length == 520


def test_reduce_is_order_sensitive():
    suite = default_suite(8)
    ivas = [suite.map_fn(1, n, bytes([n])) for n in (1, 2, 3)]
    ordered = suite.reduce_fn(1, ivas)
    permuted = suite.reduce_fn(1, [ivas[1], ivas[0], ivas[2]])
    assert ordered != permuted
    assert ordered.length == 8
    assert default_suite(8, 16).reduce_fn(1, ivas).length == 16


def test_oracle_trivial_and_deterministic():
    corpus = generate_corpus(1, 8, 0)
    suite = default_suite(8)
    (only,) = oracle(corpus, suite, 1)
    assert only == suite.reduce_fn(1, [suite.map_fn(1, 1, corpus.files[0])])
    big = generate_corpus(6, 64, 42)
    assert oracle(big, suite, 3) == oracle(big, suite, 3)


def test_golden_run_exact_loads():
    report = run_basic(3, 6, 2, 2, T=8)
    m = report.measured
    assert (m.storage_space, m.computation_load, m.communication_load) == (
        Fraction(2),
        Fraction(4, 3),
        Fraction(1, 6),
    )
    assert report.verification_passed
    assert report.predicted["communication_load"] == Fraction(1, 6)


def test_cdc_run_exact_loads():
    scheme = build_cdc_scheme(3, 6, 2, T=8)
    report = execute(scheme, generate_corpus(6, 64, 42), default_suite(8))
    m = report.measured
    assert (m.storage_space, m.computation_load, m.communication_load) == (
        Fraction(2),
        Fraction(2),
        Fraction(1, 6),
    )
    assert report.verification_passed


def test_uncoded_run():
    report = run_basic(3, 6, 2, 1, T=8)
    assert report.measured.communication_load == Fraction(1, 3)
    assert report.verification_passed


def test_measured_equals_analytic_sweep():
    for K in range(2, 6):
        for r in range(1, K):
            for g in range(1, r + 1):
                N = binomial(K, r) * binomial(r, g)
                report = run_basic(K, N, r, g, T=4 * g, F=16)
                gap = 1 - Fraction(r, K)
                assert report.measured.storage_space == r
                assert report.measured.computation_load == Fraction(r, K) + gap * g
                assert report.measured.communication_load == gap / g
                assert report.verification_passed


def test_per_node_stats_consistency():
    report = run_basic(3, 6, 2, 2, T=8)
    for stats in report.per_node:
        assert stats.stored_files == 4
        assert stats.computed_values == 8
        assert stats.sent_signals == 1
        assert stats.sent_bits == 8
        assert stats.received_signals == 2
        assert stats.received_bits == 16
    assert report.overhead_bits == 3 * 2 * 7  # 3 signals, 2-bit ids, 7 slots


def test_seed_stability_and_sensitivity():
    a = run_basic(3, 6, 2, 2, T=8, seed=5)
    b = run_basic(3, 6, 2, 2, T=8, seed=5)
    c = run_basic(3, 6, 2, 2, T=8, seed=6)
    assert a.to_json() == b.to_json()
    assert a.outputs != c.outputs
    assert a.measured == c.measured  # loads do not depend on content


def test_composite_execution_matches_predictions():
    # pre-saturation target: measured loads equal the plan's exactly
    K, r, c = 4, Fraction(5, 2), Fraction(1)
    N = minimal_files(K, r, c)
    plan = plan_for_target(K, N, r, c)
    corpus = generate_corpus(N, 64, 9)
    report = execute(plan, corpus, default_suite(safe_iva_bits(plan)))
    m = report.measured
    assert m.storage_space == plan.predicted_r == r
    assert m.computation_load == plan.predicted_c == c
    assert m.communication_load == plan.predicted_L
    assert report.verification_passed


def test_composite_execution_saturation_route():
    K, r = 4, Fraction(5, 2)
    c = Fraction(5, 8) + Fraction(3, 8) * Fraction(11, 5)
    N = minimal_files(K, r, c)
    plan = plan_for_target(K, N, r, c)
    assert plan.route == "e3"
    report = execute(plan, generate_corpus(N, 64, 1), default_suite(safe_iva_bits(plan)))
    assert report.measured.communication_load == plan.predicted_L
    assert report.measured.computation_load == c
    assert report.verification_passed


def test_audit_mode_records_and_stays_clean():
    report = run_basic(3, 6, 2, 2, T=8, audit=True)
    assert report.audit["violations"] == []
    assert report.audit["file_reads"] == 24  # one read per planned evaluation
    assert report.audit["signal_reads"] == 6  # one per recovered segment
    no_audit = run_basic(3, 6, 2, 2, T=8)
    assert no_audit.audit is None


def test_out_of_placement_read_is_blocked_and_recorded():
    corpus = generate_corpus(4, 8, 0)
    auditor = _Auditor()
    view = _NodeFiles(1, corpus, {1, 2}, auditor)
    assert view.read(2) == corpus.files[1]
    with pytest.raises(ExecutionError):
        view.read(3)
    assert auditor.violations == [{"node": 1, "kind": "file", "id": 3}]
    assert auditor.file_reads == 1


def test_trace_stream():
    sink = io.StringIO()
    run_basic(3, 6, 2, 2, T=8, trace=sink)
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(lines) == 3
    assert {rec["sender"] for rec in lines} == {1, 2, 3}
    assert all(rec["bit_length"] == 8 for rec in lines)
    repeat = io.StringIO()
    run_basic(3, 6, 2, 2, T=8, trace=repeat)
    assert repeat.getvalue() == sink.getvalue()


def test_report_serialization_roundtrip():
    report = run_basic(3, 6, 2, 2, T=8, audit=True)
    doc = json.loads(report.to_json())
    assert doc["measured"]["communication_load"]["exact"] == "1/6"
    assert doc["verification"] == {"passed": True, "first_mismatch": None}
    assert doc["plan"] == {"type": "d3c", "r": 2, "g": 2}
    assert doc["audit"]["violations"] == []


def test_corpus_plan_mismatch():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    with pytest.raises(InvalidParameterError):
        execute(scheme, generate_corpus(5, 64, 0), default_suite(8))
    with pytest.raises(InvalidParameterError):
        execute(scheme, generate_corpus(6, 32, 0), default_suite(8))
    with pytest.raises(InvalidParameterError):
        execute(scheme, generate_corpus(6, 64, 0), default_suite(16))


def test_compare_schemes_golden_table():
    rows = compare_schemes([("d3c", 2, 2), ("cdc", 2)], 3, 6, T=8)
    named = {row.name: row for row in rows}
    coded = named["d3c-r2-g2"]
    baseline = named["cdc-r2"]
    assert (coded.computation, coded.communication) == (Fraction(4, 3), Fraction(1, 6))
    assert (baseline.computation, baseline.communication) == (Fraction(2), Fraction(1, 6))
    assert all(row.verified for row in rows)
    assert all(
        row.computation == row.predicted_computation
        and row.communication == row.predicted_communication
        for row in rows
    )


def test_compare_single_config_and_corner_pair():
    (only,) = compare_schemes([("d3c", 2, 1)], 4, 24, T=8)
    assert only.communication == Fraction(1, 2)
    pair = compare_schemes([("d3c", 2, 1), ("d3c", 2, 2)], 4, 24, T=8)
    assert pair[1].communication == pair[0].communication / 2
    assert pair[1].computation - pair[0].computation == Fraction(1, 2)
