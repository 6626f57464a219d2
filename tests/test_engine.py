"""End-to-end runs: corpus, function suites, oracle verification, audit."""

import _thread
import errno
import hashlib
import io
import json
import math
import os
import signal
import threading
import time
from fractions import Fraction
from random import Random

import pytest
from conftest import fault_signals_heard_by, until_one_thread

from d3c.bits import BitString
from d3c.combinatorics import binomial, group_divisor
from d3c.composer import minimal_files, plan_for_target, safe_iva_bits
from d3c.engine import (
    _Node,
    _bind,
    _keyed_digest,
    FunctionSuite,
    default_suite,
    execute,
    generate_corpus,
    oracle,
)
from d3c.errors import DecodeError, ExecutionError, InvalidParameterError
from d3c.scheme import build_basic_scheme, build_cdc_scheme, byte_iva_bits, make_params
from d3c.shuffle import MulticastSignal, build_signals, signal_trace_records


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


@pytest.mark.parametrize("F", [8, 16, 24, 40, 64, 72])
def test_corpus_bytes_are_those_of_randbytes(F):
    for seed in (0, 1, 42, 2**40 + 3):
        rng = Random(seed)
        assert generate_corpus(9, F, seed).files == tuple(rng.randbytes(F // 8) for _ in range(9))


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
    # counter stream; up to 512 bits that is block 0 alone, and at 2**23 bits
    # it joins 16,384 blocks, which a stream copied once per block would
    # take seconds to build
    payload = b"payload"
    for domain in (b"map", b"reduce"):
        stream = b"".join(
            hashlib.blake2b(payload, digest_size=64, key=domain + c.to_bytes(8, "big")).digest()
            for c in range(2**23 // 512)
        )
        widths = (1, 7, 8, 24, 96, 511, 512, 513, 520, 1024, 1025, 1500, 4096, 2**20 + 1, 2**23)
        for nbits in widths:
            want = int.from_bytes(stream, "big") >> (len(stream) * 8 - nbits)
            assert _keyed_digest(domain, nbits)(payload) == want, (domain, nbits)


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
            want = BitString(_keyed_digest(b"reduce", 40)(ref), 40)
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


def _run_with_a_narrow_reduce():
    # the suite declares 16-bit outputs but its reduce yields 8 bits
    suite = FunctionSuite(
        default_suite(8).map_fn, lambda target, values: BitString(sum(values) % 256, 8), 8, 16
    )
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    refused = "node 1: reduce output has 8 bits but the suite declares 16"
    with pytest.raises(ExecutionError, match=refused):
        execute(scheme, generate_corpus(6, 64, 0), suite)


def test_reduce_output_of_the_wrong_width_is_refused():
    _run_with_a_narrow_reduce()


def test_reduce_output_of_the_wrong_width_is_refused_with_a_forked_oracle(forked_oracle):
    _run_with_a_narrow_reduce()
    assert len(forked_oracle) == 1


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
    node = _Node(1, corpus, {1, 2})
    assert node.read(2) == corpus.files[1]
    with pytest.raises(ExecutionError, match="node 1 attempted to read file 3"):
        node.read(3)
    assert node.file_reads == 1  # the refused read is not counted


def test_one_admitted_read_counts_every_use_and_a_refused_one_none():
    corpus = generate_corpus(4, 8, 0)
    node = _Node(1, corpus, {1, 2})
    assert node.read(2, 7) == corpus.files[1]
    assert node.file_reads == 7
    with pytest.raises(ExecutionError, match="node 1 attempted to read file 3"):
        node.read(3, 5)
    assert node.file_reads == 7
    assert node.read(1) == corpus.files[0]
    assert node.file_reads == 8


@pytest.mark.parametrize("file_id", [0, -1, 5])
def test_a_read_outside_the_corpus_is_blocked_and_not_counted(file_id):
    # -1 must not wrap to the last file, and N + 1 = 5 lies past the mask
    corpus = generate_corpus(4, 8, 0)
    node = _Node(1, corpus, [1, 2, 4, 4])
    assert node.stored == 3  # a repeated id is stored once
    with pytest.raises(ExecutionError, match=f"node 1 attempted to read file {file_id} "):
        node.read(file_id)
    assert node.read(4) == corpus.files[3]
    assert node.file_reads == 1


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


def _block_path_runs():
    """(plan, T) for every d3c and cdc scheme with K <= 5 at eta 1, 2 and 3
    and T in {g, 3g, byte_iva_bits}, then composite targets on every route."""
    for K in range(2, 6):
        for r in range(1, K + 1):
            for g in range(1, r + 1):
                for eta in (1, 2, 3):
                    N = eta * group_divisor(K, r, g)
                    for T in sorted({g, 3 * g, byte_iva_bits(g, eta)}):
                        yield build_basic_scheme(make_params(K, N, r, g, F=16, T=T)), T
                        if g == r:
                            yield build_cdc_scheme(K, N, r, F=16, T=T), T
    for K, r, c in (
        (4, Fraction(5, 2), Fraction(1)),  # e1
        (4, Fraction(5, 2), Fraction(29, 20)),  # e3
        (3, Fraction(9, 4), Fraction(9, 8)),  # e2 with four groups
        (3, Fraction(2), Fraction(6, 5)),  # e2
        (3, Fraction(2), Fraction(8, 5)),  # clamp
    ):
        plan = plan_for_target(K, minimal_files(K, r, c), r, c)
        yield plan, safe_iva_bits(plan)


def test_block_stores_sign_as_the_iva_stores_do():
    # execute keeps whole blocks; the public shuffle keeps IvaId stores
    # mapped from the compute views, and both must put the same signals on
    # the channel in the same order, and reduce to the oracle's outputs
    runs = routes = 0
    for plan, T in _block_path_runs():
        _, schemes = _bind(plan, 16, T)
        K = schemes[0].params.K
        N = sum(scheme.params.N for scheme in schemes)
        corpus, suite = generate_corpus(N, 16, N + T), default_suite(T)
        sink = io.StringIO()
        report = execute(plan, corpus, suite, trace=sink)
        want = []
        for scheme in schemes:
            stores = {
                k: {
                    iva: suite.map_fn(iva.target, iva.file, corpus.files[iva.file - 1])
                    for iva in scheme.compute_own[k] + scheme.compute_coded[k]
                }
                for k in range(1, K + 1)
            }
            want += signal_trace_records(build_signals(scheme, stores))
        assert [json.loads(line) for line in sink.getvalue().splitlines()] == want, report.plan
        assert report.outputs == tuple(o.to_bytes().hex() for o in oracle(corpus, suite, K))
        runs += 1
        routes += report.plan["type"] == "composite"
    assert (runs, routes) == (437, 5)


def test_execute_runs_no_iva_store_path(monkeypatch):
    # the timed path keeps its values as blocks: a run that joins an IvaId
    # store or falls back onto the public exchange calls fails here
    import d3c.engine
    import d3c.shuffle

    def refused(*args, **kwargs):
        raise AssertionError("execute reached an IvaId-store path")

    for name in ("_join", "build_signals", "decode_node"):
        monkeypatch.setattr(d3c.shuffle, name, refused)  # raises if the name is gone
        if hasattr(d3c.engine, name):
            monkeypatch.setattr(d3c.engine, name, refused)
    assert run_basic(4, 12, 2, 1, T=8).verification_passed
    K, r, c = 3, Fraction(9, 4), Fraction(9, 8)
    plan = plan_for_target(K, minimal_files(K, r, c), r, c)
    corpus = generate_corpus(plan.N, 64, 3)
    assert execute(plan, corpus, default_suite(safe_iva_bits(plan))).verification_passed


def test_execute_pauses_the_cyclic_collector_and_puts_it_back():
    # a run makes no reference cycles, so its collector passes would only
    # re-walk the reduce inputs: execute runs with automatic collection off
    # and leaves it as the caller had it, also when the run raises
    import gc

    base = default_suite(8)
    seen = []

    def map_fn(target, n, data):
        seen.append(gc.isenabled())
        return base.map_fn(target, n, data)

    suite = FunctionSuite(map_fn, base.reduce_fn, base.iva_bits, base.output_bits)
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert execute(scheme, generate_corpus(6, 64, 0), suite).verification_passed
            assert gc.isenabled() is enabled
        gc.enable()
        with pytest.raises(InvalidParameterError):
            execute(scheme, generate_corpus(5, 64, 0), suite)
        assert gc.isenabled()
    finally:
        gc.enable()
    assert seen and not any(seen)


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


def _first_owner(signal, receiver):
    """Whether ``signal`` is from the first member of its group other than
    ``receiver``: one signal per group that the receiver decodes with."""
    return signal.sender == next(m for m in signal.group.j if m != receiver)


def _flip_a_signal_bit(monkeypatch, receiver):
    """Flip one payload bit of a signal that ``receiver`` decodes with, as
    ``receiver`` alone hears it (one signal at K=3, r=2, g=2)."""

    def flip(signal):
        if not _first_owner(signal, receiver):
            return signal
        flipped = BitString(signal.payload.value ^ 1, signal.payload.length)
        return MulticastSignal(signal.sender, signal.group, flipped)

    fault_signals_heard_by(monkeypatch, receiver, flip)


def test_flipped_signal_bit_fails_verification(monkeypatch):
    from d3c.cli import main

    receiver = 3
    _flip_a_signal_bit(monkeypatch, receiver)
    report = run_basic(3, 6, 2, 2, T=8)
    assert report.verification_passed is False
    assert report.first_mismatch["node"] == receiver
    argv = ["simulate", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--T", "8"]
    assert main(argv) == 3


def test_missing_signal_ends_the_run(monkeypatch):
    receiver = 3
    dropped = []

    def drop(signal):
        if not _first_owner(signal, receiver):
            return signal
        dropped.append((signal.sender, signal.group))
        return None

    fault_signals_heard_by(monkeypatch, receiver, drop)
    with pytest.raises(ExecutionError, match=f"decode failed at node {receiver}:") as info:
        run_basic(3, 6, 2, 2, T=8)
    (sender, group), = dropped
    cause = info.value.__cause__
    assert isinstance(cause, DecodeError)
    assert cause.batch == group.requested_by(receiver)
    assert cause.owner == sender


def test_a_node_is_refused_its_own_signals():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    group = next(iter(scheme.coding))
    own, other = (MulticastSignal(k, group, BitString(k, 8)) for k in (1, 2))
    node = _Node(1, generate_corpus(6, 64, 0), {1, 2})
    node.signals = {(1, group): own, (2, group): other}
    assert node.get((1, group)) is None
    assert node.get((1, group), "absent") == "absent"
    assert node.signal_reads == 0  # a refused lookup is not counted
    assert node.get((2, group)) is other
    assert node.signal_reads == 1


def test_reduce_input_with_a_hole_raises(monkeypatch):
    import d3c.engine

    real_decode = d3c.engine._decode

    def dropping_decode(out, offset, k, *rest):
        real_decode(out, offset, k, *rest)
        if k == 2:
            out[6 - offset] = None

    monkeypatch.setattr(d3c.engine, "_decode", dropping_decode)
    with pytest.raises(ExecutionError, match="node 2 has no value of file 6 to reduce"):
        run_basic(3, 6, 2, 2, T=8)


def test_a_wrong_reduce_input_gives_the_same_mismatch_with_either_oracle(
    monkeypatch, forked_oracle
):
    import d3c.engine

    _flip_a_signal_bit(monkeypatch, 3)
    monkeypatch.setattr(d3c.engine, "_FORK_MIN_VALUES", math.inf)
    in_process = run_basic(3, 6, 2, 2, T=8)
    assert not forked_oracle
    monkeypatch.setattr(d3c.engine, "_FORK_MIN_VALUES", 0)
    forked = run_basic(3, 6, 2, 2, T=8)
    assert len(forked_oracle) == 1
    assert in_process.first_mismatch["node"] == 3
    assert forked.to_dict() == in_process.to_dict()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_that_fails_kills_and_reaps_its_oracle_child(monkeypatch, forked_oracle):
    import d3c.engine

    def slow_oracle(corpus, suite, K):
        time.sleep(60)  # still running when the run fails

    monkeypatch.setattr(d3c.engine, "oracle", slow_oracle)
    fault_signals_heard_by(monkeypatch, 3, lambda signal: None)  # node 3 hears nothing
    start = time.monotonic()
    with pytest.raises(ExecutionError, match="decode failed at node 3:"):
        run_basic(3, 6, 2, 2, T=8)
    assert time.monotonic() - start < 30
    assert len(forked_oracle) == 1
    _no_child_left()


def test_an_oracle_child_that_fails_fails_the_run(monkeypatch, forked_oracle):
    import d3c.engine

    def failing_oracle(corpus, suite, K):
        raise RuntimeError("the oracle failed")

    monkeypatch.setattr(d3c.engine, "oracle", failing_oracle)
    with pytest.raises(
        ExecutionError,
        match=r"oracle's child process exited with status 1: RuntimeError\('the oracle failed'\)$",
    ):
        run_basic(3, 6, 2, 2, T=8)
    assert len(forked_oracle) == 1
    _no_child_left()


def test_a_parent_that_fails_right_after_the_fork_leaves_no_child(monkeypatch, forked_oracle):
    real_close = os.close
    failed = []

    def close(fd):
        real_close(fd)
        if forked_oracle and not failed:  # the parent's first step after the fork
            failed.append(fd)
            raise OSError(errno.EIO, "failed after the fork")

    monkeypatch.setattr(os, "close", close)
    with pytest.raises(OSError, match="failed after the fork"):
        run_basic(3, 6, 2, 2, T=8)
    assert len(forked_oracle) == 1 and len(failed) == 1
    _no_child_left()


def test_the_oracle_child_flushes_nothing_it_inherited(tmp_path, forked_oracle):
    path = tmp_path / "trace.txt"
    with open(path, "w") as trace:
        trace.write("written before the run\n")  # still buffered when the child forks
        report = run_basic(3, 6, 2, 2, T=8, trace=trace)
    assert report.verification_passed
    assert len(forked_oracle) == 1
    assert path.read_text().count("written before the run") == 1


def test_an_oracle_output_larger_than_the_pipe_comes_through(monkeypatch, forked_oracle):
    import d3c.engine

    def timed_out(signum, frame):
        raise TimeoutError("the forked oracle did not deliver its outputs")

    # 3 outputs of 2**20 bits: 768 KiB of hex, past any pipe buffer, and
    # 315,653 decimal digits each, past the interpreter's int-to-str limit
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    corpus, suite = generate_corpus(6, 64, 0), default_suite(8, 2**20)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)  # a parent that reaped before reading would wait forever
    try:
        forked = execute(scheme, corpus, suite)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forked_oracle) == 1
    assert forked.verification_passed and len(forked.outputs[0]) == 2**20 // 4
    monkeypatch.setattr(d3c.engine, "_FORK_MIN_VALUES", math.inf)
    assert execute(scheme, corpus, suite).to_dict() == forked.to_dict()


def test_only_a_large_run_in_a_one_thread_process_forks(monkeypatch):
    import d3c.engine

    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # the largest scheme of ``verify --K 7``: N*K = 1,470, below the threshold
    N = group_divisor(7, 5, 3)
    assert N * 7 == 1470 < d3c.engine._FORK_MIN_VALUES
    scheme = build_basic_scheme(make_params(7, N, 5, 3, F=16, T=12))
    assert execute(scheme, generate_corpus(N, 16, 0), default_suite(12)).verification_passed
    assert forks == []
    # at K=3, N=6 the run has N*K = 18 values: it forks from a threshold of 18
    for threshold, count in ((19, 0), (18, 1)):
        monkeypatch.setattr(d3c.engine, "_FORK_MIN_VALUES", threshold)
        assert run_basic(3, 6, 2, 2, T=8).verification_passed
        assert len(forks) == count
    # a second thread keeps the oracle in-process
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert run_basic(3, 6, 2, 2, T=8).verification_passed
    finally:
        stop.set()
        waiter.join(timeout=10)
        until_one_thread()
    assert not waiter.is_alive()
    assert len(forks) == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no kernel list of threads")
def test_a_thread_that_threading_does_not_list_keeps_the_oracle_in_process(forked_oracle):
    release, done = _thread.allocate_lock(), _thread.allocate_lock()
    release.acquire()
    done.acquire()

    def hold():
        release.acquire()
        done.release()

    # started as an extension module starts a native thread: threading never sees it
    _thread.start_new_thread(hold, ())
    try:
        assert threading.active_count() == 1
        assert run_basic(3, 6, 2, 2, T=8).verification_passed
        assert forked_oracle == []
    finally:
        release.release()
        assert done.acquire(timeout=10)
        until_one_thread()
    assert run_basic(3, 6, 2, 2, T=8).verification_passed
    assert len(forked_oracle) == 1


def test_a_process_with_one_cpu_keeps_the_oracle_in_process(monkeypatch, forked_oracle):
    forked = run_basic(3, 6, 2, 2, T=8).to_dict()
    assert len(forked_oracle) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_basic(3, 6, 2, 2, T=8).to_dict() == forked
    # without an affinity mask the CPU count decides, and an unknown count is one CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, forks in ((1, 1), (None, 1), (2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = run_basic(3, 6, 2, 2, T=8)
        assert report.verification_passed and report.to_dict() == forked, cpus
        assert len(forked_oracle) == forks, cpus


def test_without_a_pipe_or_a_child_the_oracle_runs_in_process(monkeypatch, forked_oracle):
    forked = run_basic(3, 6, 2, 2, T=8).to_dict()
    pipes = []
    real_pipe = os.pipe

    def pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def refused():
        raise OSError(errno.EAGAIN, "refused")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", refused)
    assert run_basic(3, 6, 2, 2, T=8).to_dict() == forked
    (ends,) = pipes
    for fd in ends:  # the unused pipe is closed
        with pytest.raises(OSError):
            os.fstat(fd)
    monkeypatch.setattr(os, "pipe", refused)
    assert run_basic(3, 6, 2, 2, T=8).to_dict() == forked
    assert len(forked_oracle) == 1
