"""Scheme construction: placement, compute plans, and exact load counting."""

import functools
import re
from fractions import Fraction
from pathlib import Path

import pytest

import d3c
from d3c.analytics import build_curve, corner_load
from d3c.combinatorics import BatchIndex, binomial, enum_pi
from d3c.composer import minimal_files, plan_for_target
from d3c.errors import DivisibilityError, InvalidParameterError
from d3c.scheme import (
    BasicScheme,
    IvaId,
    SchemeParams,
    build_basic_scheme,
    build_cdc_scheme,
    byte_iva_bits,
    make_params,
    measure_computation,
    measure_storage,
    scheme_to_dict,
)


def minimal_scheme(K, r, g, **kw):
    N = binomial(K, r) * binomial(r, g)
    return build_basic_scheme(make_params(K, N, r, g, **kw))


def golden_scheme():
    """Three nodes, six files, two-way replication, full coding."""
    return build_basic_scheme(make_params(3, 6, 2, 2, T=8))


def all_small_parameter_tuples(max_K):
    for K in range(2, max_K + 1):
        for r in range(1, K + 1):
            for g in range(1, r + 1):
                yield K, r, g


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        SchemeParams(K=1, N=1, F=8, T=8, r=1, g=1)
    with pytest.raises(InvalidParameterError):
        SchemeParams(K=3, N=6, F=8, T=8, r=2, g=3)  # g > r
    with pytest.raises(InvalidParameterError):
        SchemeParams(K=3, N=6, F=8, T=8, r=4, g=1)  # r > K
    with pytest.raises(DivisibilityError):
        SchemeParams(K=3, N=5, F=8, T=8, r=2, g=2)
    with pytest.raises(InvalidParameterError, match="segment divisibility"):
        SchemeParams(K=3, N=3, F=8, T=7, r=2, g=2)  # 2 does not divide 1*7


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (lambda: make_params(10, 10**5000, 2, 1), DivisibilityError, "file count at least 2^16609"),
        (lambda: make_params(10**5000, 10, 2, 1), InvalidParameterError, "C(at least 2^16609, 2)"),
        (
            lambda: plan_for_target(10, -(10**5000), 3, 2),
            InvalidParameterError,
            "got at most -2^16609",
        ),
        (lambda: corner_load(10, 3, 10**5000), InvalidParameterError, "got at least 2^16609"),
        (lambda: build_curve(-(10**5000), 3), InvalidParameterError, "K=at most -2^16609"),
        (lambda: make_params(10, 10, 10**5000, 1), InvalidParameterError, "r=at least 2^16609"),
        (
            lambda: SchemeParams(K=-(10**5000), N=10, F=8, T=8, r=2, g=1),
            InvalidParameterError,
            "K=at most -2^16609",
        ),
        (lambda: build_cdc_scheme(10, 10, 10**5000), InvalidParameterError, "g=at least 2^16609"),
        (lambda: minimal_files(10**5000, 3, 2), InvalidParameterError, "C(at least 2^16609, 3)"),
    ],
    ids=[
        "N-past-the-print-limit",
        "K-past-the-print-limit",
        "negative-N-past-the-print-limit",
        "corner-g-past-the-print-limit",
        "curve-K-past-the-print-limit",
        "r-past-the-print-limit",
        "params-K-past-the-print-limit",
        "cdc-r-past-the-print-limit",
        "minimal-files-K-past-the-print-limit",
    ],
)
def test_numbers_past_the_print_limit_keep_their_error_and_a_short_message(call, error, shown):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert shown in str(err.value)
    assert len(str(err.value)) < 200


def test_segment_error_names_the_smallest_whole_byte_T():
    # g divides eta * T exactly when T is a multiple of g / gcd(g, eta); at
    # K = r = g there is one batch, so eta = N
    for K, N, T, step, smallest in ((4, 2, 7, 2, 8), (3, 1, 4, 3, 24), (6, 4, 7, 3, 24)):
        message = f"choose T as a multiple of {step} (the smallest whole-byte T is {smallest})"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            SchemeParams(K=K, N=N, F=8, T=T, r=K, g=K)
        assert byte_iva_bits(K, N) == smallest
        SchemeParams(K=K, N=N, F=8, T=smallest, r=K, g=K)


def test_readme_size_notes_name_real_functions():
    """Each backticked ``name(`` of README's "Notes on sizes" paragraph is a
    callable that resolves from the ``d3c`` package."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text()
    paragraph = readme.split("\nNotes on sizes:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([\w.]+)\(", paragraph)
    assert names == ["byte_iva_bits", "composer.safe_iva_bits"]
    for name in names:
        assert callable(functools.reduce(getattr, name.split("."), d3c)), name


def test_golden_three_node_placement():
    scheme = golden_scheme()
    assert scheme.batches == {
        ((1, 2), (1, 2)): (1, 2),
        ((1, 3), (1, 3)): (3, 4),
        ((2, 3), (2, 3)): (5, 6),
    }
    assert scheme.storage == {
        1: (1, 2, 3, 4),
        2: (1, 2, 5, 6),
        3: (3, 4, 5, 6),
    }
    assert scheme.compute_own[1] == tuple(IvaId(1, n) for n in (1, 2, 3, 4))
    assert scheme.compute_coded[1] == (
        IvaId(2, 3),
        IvaId(2, 4),
        IvaId(3, 1),
        IvaId(3, 2),
    )
    assert measure_storage(scheme) == 2
    assert measure_computation(scheme) == Fraction(4, 3)


def test_golden_scheme_per_node_counts():
    scheme = golden_scheme()
    for k in (1, 2, 3):
        assert len(scheme.compute_own[k]) == 4
        assert len(scheme.compute_coded[k]) == 4


def test_full_replication_has_no_coded_work():
    scheme = build_basic_scheme(make_params(3, 3, 3, 3))
    assert all(files == (1, 2, 3) for files in scheme.storage.values())
    assert all(scheme.compute_coded[k] == () for k in (1, 2, 3))
    assert measure_computation(scheme) == 1


def test_four_node_uncoded_counts():
    scheme = build_basic_scheme(make_params(4, 24, 2, 1))
    for k in range(1, 5):
        assert len(scheme.storage[k]) == 12
        assert len(scheme.compute_own[k]) == 12
        assert len(scheme.compute_coded[k]) == 12
    assert measure_computation(scheme) == 1


def test_storage_sum_example():
    scheme = build_basic_scheme(make_params(4, 24, 3, 2))
    assert sum(len(files) for files in scheme.storage.values()) == 72
    assert measure_storage(scheme) == 3


def test_batches_partition_the_corpus():
    for K, r, g in all_small_parameter_tuples(6):
        scheme = minimal_scheme(K, r, g)
        seen = []
        for files in scheme.batches.values():
            seen.extend(files)
        assert sorted(seen) == list(range(1, scheme.params.N + 1))


def test_placement_rule_and_computability():
    """Each compute list equals the rule, built here from its definition: on
    each stored batch (s, t), d3c maps k's own function, plus every q outside
    s when k is in t; cdc maps every function."""
    schemes = [minimal_scheme(K, r, g) for K, r, g in all_small_parameter_tuples(5)]
    schemes += [
        build_cdc_scheme(K, binomial(K, r), r) for K in range(2, 6) for r in range(1, K + 1)
    ]
    for scheme in schemes:
        K = scheme.params.K
        for k in range(1, K + 1):
            stored = set(scheme.storage[k])
            expected = set()
            own, coded = set(), set()
            for index, files in scheme.batches.items():
                if k not in index.s:
                    continue
                expected.update(files)
                for q in range(1, K + 1):
                    if scheme.kind == "cdc" or q == k or (k in index.t and q not in index.s):
                        (own if q == k else coded).update(IvaId(q, n) for n in files)
            assert stored == expected
            assert set(scheme.compute_own[k]) == own
            assert set(scheme.compute_coded[k]) == coded
            assert list(scheme.compute_own[k]) == sorted(own)
            assert list(scheme.compute_coded[k]) == sorted(coded)


def test_count_identities_exact():
    for K, r, g in all_small_parameter_tuples(8):
        scheme = minimal_scheme(K, r, g)
        N = scheme.params.N
        for k in range(1, K + 1):
            assert len(scheme.compute_own[k]) == Fraction(r * N, K)
            assert len(scheme.compute_coded[k]) == (1 - Fraction(r, K)) * g * N
        assert measure_storage(scheme) == r
        assert measure_computation(scheme) == Fraction(r, K) + (1 - Fraction(r, K)) * g


def test_cdc_examples():
    assert measure_computation(build_cdc_scheme(3, 6, 2, T=8)) == 2
    assert measure_computation(build_cdc_scheme(3, 3, 3)) == 3
    uncoded = build_cdc_scheme(4, 4, 1)
    assert measure_computation(uncoded) == 1
    stored = [files for files in uncoded.storage.values()]
    assert sorted(f for files in stored for f in files) == [1, 2, 3, 4]


def test_cdc_placement_matches_coded_scheme_at_g_r():
    for K, r in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        N = binomial(K, r)
        cdc = build_cdc_scheme(K, N, r)
        d3c = build_basic_scheme(make_params(K, N, r, r))
        assert cdc.batches == d3c.batches
        assert cdc.storage == d3c.storage
        assert cdc.kind == "cdc" and d3c.kind == "d3c"


def test_cdc_computes_everything_it_stores():
    cdc = build_cdc_scheme(3, 6, 2, T=8)
    for k in (1, 2, 3):
        expected = {
            IvaId(q, n) for q in (1, 2, 3) for n in cdc.storage[k]
        }
        assert set(cdc.compute_own[k]) | set(cdc.compute_coded[k]) == expected
    assert measure_storage(cdc) == 2


def test_an_unknown_kind_is_rejected():
    # the compute rule knows "d3c" and "cdc" alone; any other name, "CDC"
    # included, would run the d3c rule under that name
    params = make_params(3, 6, 2, 2, T=8)
    batches = build_basic_scheme(params).batches
    for kind in ("CDC", "D3C", "", "uncoded"):
        with pytest.raises(InvalidParameterError, match="scheme kind must be 'd3c' or 'cdc'"):
            BasicScheme(params, batches, kind=kind)


def test_cdc_dominates_coded_computation():
    # equality occurs only in the degenerate single-copy case r = g = 1
    for K, r, g in all_small_parameter_tuples(6):
        c_coded = Fraction(r, K) + (1 - Fraction(r, K)) * g
        c_cdc = Fraction(r)
        assert c_cdc >= c_coded
        assert (c_cdc == c_coded) == (r == 1 and g == 1)


def test_coding_table_keeps_the_filtered_group_rule():
    # reference: each member's batch is the group with the member filtered
    # out of i and of j, as a generator over each set
    for K in range(2, 8):
        for r in range(1, K):
            for g in range(1, r + 1):
                scheme = minimal_scheme(K, r, g, T=g)
                want = {}
                for group in enum_pi(K, r, g):
                    rows = []
                    for member in group.j:
                        batch = BatchIndex(
                            *(tuple(x for x in nodes if x != member) for nodes in group)
                        )
                        rows.append((member, scheme.batches[batch], batch.t))
                    want[group] = tuple(rows)
                assert list(scheme.coding.items()) == list(want.items()), (K, r, g)


def test_serializing_a_scheme_builds_no_coding_table():
    scheme = minimal_scheme(5, 3, 2)
    scheme_to_dict(scheme)
    assert "coding" not in vars(scheme)
    assert len(scheme.coding) == binomial(5, 4) * binomial(4, 3)  # built by its first reader
    assert "coding" in vars(scheme)


def test_serialization_schema():
    scheme = golden_scheme()
    doc = scheme_to_dict(scheme)
    assert doc["kind"] == "d3c"
    assert doc["params"] == {"K": 3, "N": 6, "F": 64, "T": 8, "r": 2, "g": 2}
    assert doc["batches"][0] == {"s": [1, 2], "t": [1, 2], "files": [1, 2]}
    assert doc["storage"]["1"] == [1, 2, 3, 4]
    assert [tuple(x) for x in doc["compute_coded"]["1"]] == [
        (2, 3),
        (2, 4),
        (3, 1),
        (3, 2),
    ]
