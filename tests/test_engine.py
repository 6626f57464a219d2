"""End-to-end runs: corpus, function suites, oracle verification, audit."""

import hashlib
import io
import json
from fractions import Fraction
from random import Random

import pytest

from d3c.bits import BitString
from d3c.combinatorics import binomial
from d3c.composer import minimal_files, plan_for_target, safe_iva_bits
from d3c.engine import (
    _NodeFiles,
    _Auditor,
    _bind,
    _digest_bits,
    FunctionSuite,
    default_suite,
    execute,
    generate_corpus,
    oracle,
)
from d3c.errors import DecodeError, ExecutionError, InvalidParameterError
from d3c.scheme import build_basic_scheme, build_cdc_scheme, make_params
from d3c.shuffle import MulticastSignal


def run_basic(K, N, r, g, *, T, seed=42, F=64, trace=None):
    scheme = build_basic_scheme(make_params(K, N, r, g, F=F, T=T))
    corpus = generate_corpus(N, F, seed)
    return execute(scheme, corpus, default_suite(T), trace=trace)


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
    assert 0 <= a < 1 << 12
    assert suite.map_fn(2, 2, b"abc") != a
    assert suite.map_fn(1, 3, b"abc") != a
    wide = default_suite(520)  # larger than one digest block
    assert 0 <= wide.map_fn(1, 1, b"x") < 1 << 520


def test_one_block_digest_is_the_counter_stream_prefix():
    # the digest is the first nbits bits of blocks 0, 1, ... of the keyed
    # counter stream; up to 512 bits that is block 0 alone
    payload = b"payload"
    for domain in (b"map", b"reduce"):
        stream = b"".join(
            hashlib.blake2b(payload, digest_size=64, key=domain + c.to_bytes(8, "big")).digest()
            for c in range(8)
        )
        for nbits in (1, 7, 8, 24, 96, 511, 512, 513, 520, 1024, 1025, 1500, 4096):
            want = int.from_bytes(stream, "big") >> (len(stream) * 8 - nbits)
            assert _digest_bits(domain, payload, nbits) == want, (domain, nbits)


def test_map_value_is_the_digest_of_target_file_id_and_data():
    # map_fn(q, n, data) is the first T bits of the b"map" counter stream
    # over q(4) + n(8) + data; targets interleave and every call repeats, so
    # a cached per-target state fed in place would change the next value
    def reference(T, q, n, data):
        payload = q.to_bytes(4, "big") + n.to_bytes(8, "big") + data
        stream = b"".join(
            hashlib.blake2b(payload, digest_size=64, key=b"map" + c.to_bytes(8, "big")).digest()
            for c in range(-(-T // 512))
        )
        return int.from_bytes(stream, "big") >> (len(stream) * 8 - T)

    widths = (1, 8, 24, 96, 511, 512, 513, 520, 1024, 1025, 1500, 4096)
    suites = {T: default_suite(T) for T in widths}  # all alive at once
    for n, data in ((1, b"\x00"), (7, b"abc"), (2**40 + 3, bytes(range(200)))):
        for q in (1, 2, 1, 3):
            for T, suite in suites.items():
                want = reference(T, q, n, data)
                assert suite.map_fn(q, n, data) == want, (T, q, n)
                assert suite.map_fn(q, n, data) == want, (T, q, n)


def test_reduce_blob_is_length_prefixed_value_bytes():
    # the reduce digests the 4-byte target, then per value its 4-byte bit
    # length and its bits padded to whole bytes
    for T in (1, 7, 8, 9, 24, 520):
        rng = Random(T)
        for values in ([rng.getrandbits(T)], [0] + [rng.getrandbits(T) for _ in range(6)]):
            ref = (3).to_bytes(4, "big") + b"".join(
                T.to_bytes(4, "big") + BitString(v, T).to_bytes() for v in values
            )
            want = BitString(_digest_bits(b"reduce", ref, 40), 40)
            assert default_suite(T, 40).reduce_fn(3, values) == want, (T, len(values))
    for bad in (256, -1):  # not an 8-bit value
        with pytest.raises(OverflowError):
            default_suite(8).reduce_fn(3, [1, bad])


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


def test_zero_values_are_values():
    # a map that yields 0 everywhere: no check may take 0 for a missing value
    suite = FunctionSuite(lambda target, file_id, data: 0, default_suite(8).reduce_fn, 8, 8)
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    report = execute(scheme, generate_corpus(6, 64, 0), suite)
    assert report.verification_passed
    assert report.measured.communication_load == Fraction(1, 6)


def test_reduce_output_of_the_wrong_width_is_refused():
    # the suite declares 16-bit outputs but its reduce yields 8 bits
    suite = FunctionSuite(
        default_suite(8).map_fn, lambda target, values: BitString(sum(values) % 256, 8), 8, 16
    )
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    refused = "node 1: reduce output has 8 bits but the suite declares 16"
    with pytest.raises(ExecutionError, match=refused):
        execute(scheme, generate_corpus(6, 64, 0), suite)


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
    for scheme in (
        build_basic_scheme(make_params(4, 24, 2, 1, T=8)),
        build_cdc_scheme(4, 6, 2, T=8),
    ):
        report = execute(scheme, generate_corpus(scheme.params.N, 64, 0), default_suite(8))
        for stats in report.per_node:
            k = stats.node
            assert stats.computed_values == len(scheme.compute_own[k]) + len(
                scheme.compute_coded[k]
            )


def test_seed_stability_and_sensitivity():
    a = run_basic(3, 6, 2, 2, T=8, seed=5)
    b = run_basic(3, 6, 2, 2, T=8, seed=5)
    c = run_basic(3, 6, 2, 2, T=8, seed=6)
    assert a.to_dict() == b.to_dict()
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


@pytest.mark.parametrize(
    "K, r, c",
    [
        # the route examples of test_executed_plan_meets_curve_and_prediction
        (4, Fraction(2), Fraction(1)),
        (2, Fraction(3, 2), Fraction(1)),
        (3, Fraction(2), Fraction(6, 5)),
        (4, Fraction(9, 4), Fraction(3, 2)),
        (3, Fraction(2), Fraction(8, 5)),
        (3, Fraction(9, 4), Fraction(9, 8)),  # e2 with four groups
    ],
)
def test_composite_groups_run_on_their_own_corpus_files(K, r, c):
    N = minimal_files(K, r, c)
    plan = plan_for_target(K, N, r, c)
    _, schemes = _bind(plan, 8, safe_iva_bits(plan))
    assert len(schemes) == len(plan.groups)
    tiled = []
    for sp, scheme in zip(plan.groups, schemes):
        files = sorted(n for batch in scheme.batches.values() for n in batch)
        assert files == list(range(sp.first_file, sp.first_file + sp.file_count)), plan.route
        assert {n for stored in scheme.storage.values() for n in stored} == set(files)
        tiled += files
    assert tiled == list(range(1, N + 1))


def test_audit_mode_records_and_stays_clean():
    report = run_basic(3, 6, 2, 2, T=8)
    assert report.audit["violations"] == []
    assert report.audit["file_reads"] == 24  # one read per planned evaluation
    assert report.audit["signal_reads"] == 6  # one per recovered segment


def test_out_of_placement_read_is_blocked_and_recorded():
    corpus = generate_corpus(4, 8, 0)
    auditor = _Auditor()
    view = _NodeFiles(1, corpus, {1, 2}, auditor)
    assert view.read(2) == corpus.files[1]
    with pytest.raises(ExecutionError, match="node 1 attempted to read file 3"):
        view.read(3)
    assert auditor.file_reads == 1  # the refused read is not counted


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
    report = run_basic(3, 6, 2, 2, T=8)
    doc = report.to_dict()
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


def test_flipped_signal_bit_fails_verification(monkeypatch):
    import d3c.engine
    from d3c.cli import main

    receiver = 3
    real_run_shuffle = d3c.engine.run_shuffle

    def corrupting_run_shuffle(scheme, computed):
        delivered, bits = real_run_shuffle(scheme, computed)
        # a signal whose coding set holds the receiver, so it decodes with it
        key = next(key for key in sorted(delivered[receiver]) if receiver in key[1].j)
        signal = delivered[receiver][key]
        flipped = BitString(signal.payload.value ^ 1, signal.payload.length)
        delivered[receiver][key] = MulticastSignal(signal.sender, signal.group, flipped)
        return delivered, bits

    monkeypatch.setattr(d3c.engine, "run_shuffle", corrupting_run_shuffle)
    report = run_basic(3, 6, 2, 2, T=8)
    assert report.verification_passed is False
    assert report.first_mismatch["node"] == receiver
    argv = ["simulate", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--T", "8"]
    assert main(argv) == 3


def test_missing_signal_ends_the_run(monkeypatch):
    import d3c.engine

    receiver = 3
    real_run_shuffle = d3c.engine.run_shuffle
    dropped = []

    def dropping_run_shuffle(scheme, computed):
        delivered, bits = real_run_shuffle(scheme, computed)
        # a signal whose coding set holds the receiver, so it decodes with it
        key = next(key for key in sorted(delivered[receiver]) if receiver in key[1].j)
        del delivered[receiver][key]
        dropped.append(key)
        return delivered, bits

    monkeypatch.setattr(d3c.engine, "run_shuffle", dropping_run_shuffle)
    with pytest.raises(ExecutionError, match=f"decode failed at node {receiver}:") as info:
        run_basic(3, 6, 2, 2, T=8)
    (sender, group), = dropped
    cause = info.value.__cause__
    assert isinstance(cause, DecodeError)
    assert cause.batch == group.requested_by(receiver)
    assert cause.owner == sender


def test_reduce_input_with_a_hole_raises(monkeypatch):
    import d3c.engine

    real_decode_node = d3c.engine.decode_node

    def dropping_decode_node(k, scheme, computed_k, delivered_k):
        values = real_decode_node(k, scheme, computed_k, delivered_k)
        if k == 2:
            del values[6]
        return values

    monkeypatch.setattr(d3c.engine, "decode_node", dropping_decode_node)
    with pytest.raises(ExecutionError, match="node 2 has no value of file 6 to reduce"):
        run_basic(3, 6, 2, 2, T=8)
