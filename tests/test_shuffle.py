"""Coded exchange: segment cuts, signal structure, and bit-exact decoding.

The decodability oracle computes every intermediate value directly from the
value table and compares the decoded results bit for bit; it never touches
the exchange path it is checking.
"""

import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from bitops import join

from d3c.bits import BitString
from d3c.combinatorics import BatchIndex, binomial, enum_pi
from d3c.errors import DecodeError, InternalConsistencyError, InvalidParameterError
from d3c.scheme import IvaId, build_basic_scheme, build_cdc_scheme, make_params
from d3c.shuffle import (
    MulticastSignal,
    _decode,
    _encode,
    build_signals,
    decode_node,
    run_shuffle,
    signal_trace_records,
)


def value_table(scheme):
    """Oracle values: a distinct, deterministic T-bit int per (target, file)."""
    mask = (1 << scheme.params.T) - 1
    return {
        IvaId(q, n): (q * 131071 + n * 8191 + 7) & mask
        for q in range(1, scheme.params.K + 1)
        for n in range(1, scheme.params.N + 1)
    }


def computed_stores(scheme):
    """Per-node stores holding exactly the planned compute sets."""
    table = value_table(scheme)
    return {
        k: {iva: table[iva] for iva in scheme.compute_own[k] + scheme.compute_coded[k]}
        for k in scheme.storage
    }, table


def minimal_scheme(K, r, g, *, eta=1, T=None):
    N = eta * binomial(K, r) * binomial(r, g)
    if T is None:
        T = 4 * g
    return build_basic_scheme(make_params(K, N, r, g, F=16, T=T))


def sparse_stores(scheme, values):
    """Per-node planned compute sets holding ``values`` and zero elsewhere."""
    return {
        k: {iva: values.get(iva, 0) for iva in scheme.compute_own[k] + scheme.compute_coded[k]}
        for k in scheme.storage
    }


def payloads(scheme, computed):
    return {s.sender: s.payload for s in build_signals(scheme, computed)}


def test_segment_halving():
    # one 16-bit block, (s, t) = (1 2, 1 2), requested by node 3: node 1
    # sends its upper half and node 2 its lower half, in ascending owner order
    scheme = build_basic_scheme(make_params(3, 3, 2, 2, T=16))
    assert scheme.batches[((1, 2), (1, 2))] == (1,)
    sent = payloads(scheme, sparse_stores(scheme, {IvaId(3, 1): 0xBEEF}))
    assert sent == {1: BitString(0xBE, 8), 2: BitString(0xEF, 8), 3: BitString(0, 8)}
    assert join([sent[1], sent[2]]) == BitString(0xBEEF, 16)


def test_segment_identity_split():
    # g = 1: the only owner, node 1, sends the whole 3-bit block that node 3
    # requests from batch (1 2, 1)
    scheme = build_basic_scheme(make_params(3, 6, 2, 1, T=3))
    assert scheme.batches[((1, 2), (1,))] == (1,)
    signals = build_signals(scheme, sparse_stores(scheme, {IvaId(3, 1): 0b101}))
    sent = {(s.sender, s.group.j): s.payload for s in signals}
    assert sent.pop((1, (1, 3))) == BitString(0b101, 3)
    assert set(sent.values()) == {BitString(0, 3)}


def test_segment_four_way_bit_split():
    # two 8-bit values concatenated, split four ways: 4 bits each
    scheme = build_basic_scheme(make_params(5, 10, 4, 4, T=8))
    assert scheme.batches[((1, 2, 3, 4), (1, 2, 3, 4))] == (1, 2)
    sent = payloads(scheme, sparse_stores(scheme, {IvaId(5, 1): 0xAB, IvaId(5, 2): 0xCD}))
    assert [sent[k] for k in (1, 2, 3, 4)] == [BitString(v, 4) for v in (0xA, 0xB, 0xC, 0xD)]
    assert sent[5] == BitString(0, 4)


def test_segment_padding_case_is_rejected():
    # a 10-bit block cannot split three ways; the scheme is never built
    with pytest.raises(InvalidParameterError, match="g=3 must divide eta\\*T = 1\\*10"):
        make_params(4, 4, 3, 3, T=10)


def test_signal_counts_golden_cases():
    full = minimal_scheme(3, 2, 2, eta=2, T=8)  # six files
    signals = build_signals(full, computed_stores(full)[0])
    assert len(signals) == 3
    assert sorted(s.sender for s in signals) == [1, 2, 3]
    assert all(s.bit_length == 8 for s in signals)  # eta * T / g = 2*8/2

    uncoded = minimal_scheme(3, 2, 1, T=8)  # six files, g = 1
    signals = build_signals(uncoded, computed_stores(uncoded)[0])
    assert len(signals) == 6
    assert all(s.bit_length == 8 for s in signals)


def test_no_exchange_when_everything_is_stored():
    scheme = build_basic_scheme(make_params(3, 3, 3, 3))
    computed, _ = computed_stores(scheme)
    assert build_signals(scheme, computed) == []
    _, bits = run_shuffle(scheme, computed)
    assert bits == 0


def test_golden_signal_payloads():
    """The three-node exchange XORs exactly the cross-batch halves."""
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, table = computed_stores(scheme)
    signals = {s.sender: s for s in build_signals(scheme, computed)}
    assert signals[1].payload == BitString(table[IvaId(2, 3)] ^ table[IvaId(3, 1)], 8)
    assert signals[2].payload == BitString(table[IvaId(1, 5)] ^ table[IvaId(3, 2)], 8)
    assert signals[3].payload == BitString(table[IvaId(1, 6)] ^ table[IvaId(2, 4)], 8)
    assert all(s.group == ((1, 2, 3), (1, 2, 3)) for s in signals.values())


def test_per_node_signal_count_identity():
    for K in range(2, 7):
        for r in range(1, K):
            for g in range(1, r + 1):
                scheme = minimal_scheme(K, r, g)
                computed, _ = computed_stores(scheme)
                signals = build_signals(scheme, computed)
                expected_per_node = binomial(K - 1, r) * binomial(r, g)
                per_node = {k: 0 for k in range(1, K + 1)}
                for s in signals:
                    per_node[s.sender] += 1
                assert all(v == expected_per_node for v in per_node.values())
                assert len(signals) == len(enum_pi(K, r, g)) * (g + 1)


def test_exact_load_identity_and_padding_free():
    for K in range(2, 7):
        for r in range(1, K):
            for g in range(1, r + 1):
                scheme = minimal_scheme(K, r, g)
                p = scheme.params
                computed, _ = computed_stores(scheme)
                delivered, total_bits = run_shuffle(scheme, computed)
                load = Fraction(total_bits, p.N * p.K * p.T)
                assert load == Fraction(1, g) * (1 - Fraction(r, K))
                # every signal exactly eta*T/g bits: no padding anywhere
                for store in delivered.values():
                    for signal in store.values():
                        assert signal.bit_length == p.eta * p.T // g


def test_broadcast_reaches_everyone_else():
    scheme = minimal_scheme(3, 2, 1, T=8)
    computed, _ = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    for k, store in delivered.items():
        assert all(sender != k for sender, _ in store)
        assert len(store) == 4  # six signals minus node k's own two


def decode_all_and_check(scheme):
    computed, table = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    for k in scheme.storage:
        values = decode_node(k, scheme, computed[k], delivered[k])
        assert set(values) == set(range(1, scheme.params.N + 1))
        for n, got in values.items():
            assert got == table[IvaId(k, n)], (k, n)


def test_decodability_bit_exact_small_sweep():
    for K in range(2, 6):
        for r in range(1, K):
            for g in range(1, r + 1):
                decode_all_and_check(minimal_scheme(K, r, g))


def test_decodability_with_larger_batches_and_odd_T():
    decode_all_and_check(minimal_scheme(4, 3, 2, eta=3, T=10))
    decode_all_and_check(minimal_scheme(5, 3, 3, eta=2, T=9))


def test_decode_golden_recovers_unstored_batch():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, table = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    values = decode_node(1, scheme, computed[1], delivered[1])
    assert values[5] == table[IvaId(1, 5)]
    assert values[6] == table[IvaId(1, 6)]


def test_decode_forwarding_when_g_is_one():
    # with g = 1 each signal is a single unmasked segment
    scheme = minimal_scheme(4, 2, 1, T=8)
    computed, table = computed_stores(scheme)
    signals = build_signals(scheme, computed)
    for s in signals:
        (receiver,) = [i for i in s.group.j if i != s.sender]
        batch = BatchIndex(
            tuple(x for x in s.group.i if x != receiver),
            tuple(x for x in s.group.j if x != receiver),
        )
        block = join(
            BitString(computed[s.sender][IvaId(receiver, n)], 8) for n in scheme.batches[batch]
        )
        assert s.payload == block


def test_decode_nothing_missing_at_full_storage():
    scheme = build_basic_scheme(make_params(3, 3, 3, 2))
    computed, table = computed_stores(scheme)
    delivered, bits = run_shuffle(scheme, computed)
    assert bits == 0
    values = decode_node(2, scheme, computed[2], delivered[2])
    assert values == {n: table[IvaId(2, n)] for n in (1, 2, 3)}


def test_cdc_scheme_shuffles_identically():
    cdc = build_cdc_scheme(3, 6, 2, T=8)
    computed, table = computed_stores(cdc)
    delivered, total_bits = run_shuffle(cdc, computed)
    assert Fraction(total_bits, 6 * 3 * 8) == Fraction(1, 6)
    for k in (1, 2, 3):
        values = decode_node(k, cdc, computed[k], delivered[k])
        assert all(values[n] == table[IvaId(k, n)] for n in range(1, 7))


def test_missing_signal_is_a_decode_error():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, _ = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    delivered[1].clear()
    with pytest.raises(DecodeError) as err:
        decode_node(1, scheme, computed[1], delivered[1])
    assert err.value.batch == ((2, 3), (2, 3))
    assert err.value.owner == 2


def test_missing_local_operand_is_a_decode_error():
    # node 1 cancels node 2's signal with its own copy of v(3, 2): owner 2's
    # half of the block node 3 requests from batch (1 2, 1 2)
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, _ = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    del computed[1][IvaId(3, 2)]
    with pytest.raises(DecodeError) as err:
        decode_node(1, scheme, computed[1], delivered[1])
    assert err.value.batch == ((2, 3), (2, 3))
    assert err.value.owner == 2
    # a value of a file node 1 stores is its own, never decoded
    computed, _ = computed_stores(scheme)
    del computed[1][IvaId(1, 1)]
    with pytest.raises(DecodeError, match="node 1 missing own value for file 1"):
        decode_node(1, scheme, computed[1], delivered[1])


def test_decode_needs_every_value_of_a_needed_block():
    # 40-bit segments of 24-bit values: in group (1 2 3 4), node 1 cancels
    # owner 2's and owner 3's segments of the block node 4 requests from
    # batch (1 2 3, 1 2 3); the block is joined whole, so a store missing
    # any of its five values fails at owner 2, naming the block's first value
    scheme = minimal_scheme(5, 3, 3, eta=5, T=24)
    files = scheme.batches[((1, 2, 3), (1, 2, 3))]
    computed, table = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    values = decode_node(1, scheme, computed[1], delivered[1])
    assert values == {n: table[IvaId(1, n)] for n in range(1, scheme.params.N + 1)}
    for n in files:
        store = dict(computed[1])
        del store[IvaId(4, n)]
        with pytest.raises(DecodeError, match=re.escape(f"operand {IvaId(4, files[0])} ")) as err:
            decode_node(1, scheme, store, delivered[1])
        assert err.value.batch == ((2, 3, 4), (2, 3, 4))
        assert err.value.owner == 2


def block_stores(scheme, table):
    """The planned compute sets as ``execute`` keeps them: each other-target
    block whole under (target, first file of the batch)."""
    stores = {k: {} for k in scheme.storage}
    for batch, files in scheme.batches.items():
        for k, functions in scheme.mappers(batch):
            for q in functions:
                if q != k:
                    block = join(BitString(table[IvaId(q, n)], scheme.params.T) for n in files)
                    stores[k][q, files[0]] = block.value
    return stores


def test_a_missing_block_names_its_first_value():
    # the block cut signs as the IvaId cut; node 1's block of target 3 on
    # batch (1 2, 1 2), files 1 and 2, is an operand at both ends
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, table = computed_stores(scheme)
    blocks = block_stores(scheme, table)
    assert _encode(scheme, blocks) == build_signals(scheme, computed)
    delivered, _ = run_shuffle(scheme, computed)
    del blocks[1][3, 1]
    with pytest.raises(InternalConsistencyError, match=re.escape(f"operand {IvaId(3, 1)} ")):
        _encode(scheme, blocks)
    with pytest.raises(DecodeError, match=re.escape(f"operand {IvaId(3, 1)} ")) as err:
        _decode({}, 0, 1, scheme, blocks[1], delivered[1])
    assert err.value.batch == ((2, 3), (2, 3))
    assert err.value.owner == 2


def test_missing_operand_is_an_internal_error():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, _ = computed_stores(scheme)
    del computed[1][IvaId(2, 3)]
    with pytest.raises(InternalConsistencyError):
        build_signals(scheme, computed)


def test_coding_table_is_enumerated_once_per_scheme(monkeypatch):
    import d3c.scheme

    calls = []

    def counting_enum_pi(*args):
        calls.append(args)
        return enum_pi(*args)

    monkeypatch.setattr(d3c.scheme, "enum_pi", counting_enum_pi)
    scheme = minimal_scheme(5, 3, 2, eta=2, T=8)  # build_signals builds the table
    computed, table = computed_stores(scheme)
    build_signals(scheme, computed)
    delivered, _ = run_shuffle(scheme, computed)
    for k in scheme.storage:
        values = decode_node(k, scheme, computed[k], delivered[k])
        assert all(values[n] == table[IvaId(k, n)] for n in values)
    assert calls == [(5, 3, 2)]


class _ReadRecorder(Mapping):
    """A coding table that records each group whose rows are read."""

    def __init__(self, table):
        self.table, self.read = table, []

    def __getitem__(self, group):
        self.read.append(group)
        return self.table[group]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_a_receiver_reads_only_the_groups_that_hold_it():
    # 2016 groups at K = 64, r = 1; node 7 sits in the j of 63 of them
    scheme = minimal_scheme(64, 1, 1)
    computed, table = computed_stores(scheme)
    signals = build_signals(scheme, computed)
    delivered = {(s.sender, s.group): s for s in signals if s.sender != 7}
    recorder = _ReadRecorder(scheme.coding)
    scheme.__dict__["coding"] = recorder
    values = decode_node(7, scheme, computed[7], delivered)
    assert values == {n: table[IvaId(7, n)] for n in range(1, 65)}
    assert len(recorder.read) == 63
    assert all(7 in group.j for group in recorder.read)


def test_wrong_length_signal_is_a_decode_error():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, _ = computed_stores(scheme)
    delivered, _ = run_shuffle(scheme, computed)
    key = next(key for key in sorted(delivered[1]) if key[0] == 2)
    signal = delivered[1][key]
    longer = BitString(signal.payload.value, signal.bit_length + 1)
    delivered[1][key] = MulticastSignal(signal.sender, signal.group, longer)
    with pytest.raises(DecodeError, match="9-bit signal from 2") as err:
        decode_node(1, scheme, computed[1], delivered[1])
    assert err.value.batch == ((2, 3), (2, 3))
    assert err.value.owner == 2


def test_trace_records_schema_and_determinism():
    scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
    computed, _ = computed_stores(scheme)
    records = signal_trace_records(build_signals(scheme, computed))
    assert len(records) == 3
    assert set(records[0]) == {"sender", "group_i", "group_j", "bit_length", "payload_digest"}
    assert records == signal_trace_records(build_signals(scheme, computed))
    assert records[0]["group_i"] == [1, 2, 3]
    assert records[0]["bit_length"] == 8
