"""Index enumeration: counts, ordering, and the batch-size formula.

Counts are checked against a Pascal-triangle oracle and subset enumeration
against an independent bitmask enumerator, so the library path never
validates itself.
"""

import pytest

from d3c.combinatorics import (
    batch_size,
    binomial,
    enum_omega,
    enum_pi,
    enum_subsets,
)
from d3c.errors import DivisibilityError, InvalidParameterError


def pascal_choose(n: int, k: int) -> int:
    """Oracle: Pascal's triangle, no factorials."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if 0 <= k <= n else 0


def bitmask_subsets(universe: int, size: int) -> set:
    """Oracle: enumerate subsets by bitmask filtering."""
    out = set()
    for mask in range(1 << universe):
        if bin(mask).count("1") == size:
            out.add(tuple(i + 1 for i in range(universe) if mask >> i & 1))
    return out


def test_binomial_small_cases():
    assert binomial(5, 0) == 1
    assert binomial(3, 2) == 3
    assert binomial(10, 4) == pascal_choose(10, 4) == 210


def test_binomial_matches_pascal_triangle():
    for n in range(13):
        for k in range(n + 2):
            assert binomial(n, k) == pascal_choose(n, k)


def test_binomial_zero_when_k_exceeds_n():
    assert binomial(4, 7) == 0


def test_binomial_rejects_negative():
    with pytest.raises(InvalidParameterError):
        binomial(-1, 0)
    with pytest.raises(InvalidParameterError):
        binomial(3, -2)


def test_binomial_overflow_is_explicit():
    with pytest.raises(InvalidParameterError):
        binomial(70, 35)  # ~1.1e20, past the 64-bit count range


def test_enum_subsets_examples():
    assert enum_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert enum_subsets(3, 3) == [(1, 2, 3)]
    four_choose_two = enum_subsets(4, 2)
    assert len(four_choose_two) == 6
    assert four_choose_two[0] == (1, 2)
    assert four_choose_two[-1] == (3, 4)


def test_enum_subsets_oversized_is_empty():
    assert enum_subsets(3, 4) == []


def test_enum_subsets_matches_bitmask_oracle():
    for universe in range(9):
        for size in range(universe + 1):
            got = enum_subsets(universe, size)
            assert set(got) == bitmask_subsets(universe, size)
            assert got == sorted(got)  # lexicographic contract
            assert len(got) == binomial(universe, size)


def test_enum_omega_explicit_small_case():
    assert enum_omega(3, 2, 1) == [
        ((1, 2), (1,)),
        ((1, 2), (2,)),
        ((1, 3), (1,)),
        ((1, 3), (3,)),
        ((2, 3), (2,)),
        ((2, 3), (3,)),
    ]


def test_enum_omega_g_equals_r_forces_t_equals_s():
    entries = enum_omega(3, 2, 2)
    assert len(entries) == 3
    assert all(b.t == b.s for b in entries)


def test_enum_omega_full_replication():
    assert enum_omega(3, 3, 3) == [((1, 2, 3), (1, 2, 3))]


def test_enum_omega_counts_and_invariants():
    for K in range(1, 9):
        for r in range(1, K + 1):
            for g in range(1, r + 1):
                entries = enum_omega(K, r, g)
                assert len(entries) == binomial(K, r) * binomial(r, g)
                for b in entries:
                    assert set(b.t) <= set(b.s)
                    assert len(b.s) == r and len(b.t) == g
                    for members in (b.s, b.t):
                        assert all(1 <= m <= K for m in members)
                        assert all(x < y for x, y in zip(members, members[1:]))
                assert entries == enum_omega(K, r, g)  # deterministic


def test_enum_omega_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError, match="g <= r"):
        enum_omega(4, 2, 3)
    with pytest.raises(InvalidParameterError, match="r <= K"):
        enum_omega(3, 4, 1)


def test_enum_pi_examples():
    assert enum_pi(3, 2, 2) == [((1, 2, 3), (1, 2, 3))]
    three = enum_pi(3, 2, 1)
    assert len(three) == 3
    assert all(grp.i == (1, 2, 3) for grp in three)
    assert [grp.j for grp in three] == [(1, 2), (1, 3), (2, 3)]
    assert len(enum_pi(4, 2, 1)) == 12


def test_enum_pi_counts():
    for K in range(2, 9):
        for r in range(1, K):
            for g in range(1, r + 1):
                entries = enum_pi(K, r, g)
                assert len(entries) == binomial(K, r + 1) * binomial(r + 1, g + 1)
                for grp in entries:
                    assert set(grp.j) <= set(grp.i)
                    assert len(grp.i) == r + 1 and len(grp.j) == g + 1


def test_enum_pi_rejects_r_at_least_K():
    with pytest.raises(InvalidParameterError, match="multicast"):
        enum_pi(3, 3, 2)


def test_batch_size_examples():
    assert batch_size(6, 3, 2, 2) == 2
    assert batch_size(6, 3, 2, 1) == 1
    for K, r, g in [(3, 2, 1), (4, 3, 2), (5, 2, 2)]:
        denom = binomial(K, r) * binomial(r, g)
        assert batch_size(K * denom, K, r, g) == K


def test_batch_size_reports_smallest_admissible_count():
    with pytest.raises(DivisibilityError) as err:
        batch_size(7, 3, 2, 1)
    assert err.value.min_files == 6

