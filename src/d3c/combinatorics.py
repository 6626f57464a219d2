"""Deterministic enumeration of the index sets behind batch placement.

Node ids are 1-based. A batch index pairs a storage set ``s`` (the nodes
holding the batch) with a coding set ``t`` within it; a multicast group
index pairs the extended sets ``i`` and ``j`` used in the shuffle phase.
Enumeration order (lexicographic by the first set, then the second) is a
frozen public contract: callers rely on it for reproducible file layouts.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import DivisibilityError, InvalidParameterError

# Counts are kept within unsigned 64-bit range so serialized schemes stay
# portable; larger parameter spaces are rejected rather than silently widened.
_COUNT_MAX = 2**64 - 1

NodeSet = tuple[int, ...]


class BatchIndex(NamedTuple):
    """Index (s, t) of one file batch: t is a |t| = g subset of s, |s| = r."""

    s: NodeSet
    t: NodeSet


class GroupIndex(NamedTuple):
    """Index (i, j) of one multicast group: |i| = r + 1, |j| = g + 1, j within i."""

    i: NodeSet
    j: NodeSet

    def requested_by(self, k: int) -> BatchIndex:
        """The batch (i minus k, j minus k) whose values member k of j needs."""
        return BatchIndex(*(tuple(x for x in nodes if x != k) for nodes in self))


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n. Raises OverflowError past the 64-bit range."""
    if n < 0 or k < 0:
        raise InvalidParameterError("binomial arguments must be non-negative")
    if k > n:
        return 0
    value = math.comb(n, k)
    if value > _COUNT_MAX:
        raise OverflowError(f"C({n}, {k}) exceeds the 64-bit count range")
    return value


def enum_subsets(universe: int, size: int) -> list[NodeSet]:
    """All ``size``-subsets of [1..universe] in lexicographic order."""
    if universe < 0 or size < 0:
        raise InvalidParameterError("universe and size must be non-negative")
    binomial(universe, size)  # overflow check before materializing
    return list(combinations(range(1, universe + 1), size))


def enum_omega(K: int, r: int, g: int) -> list[BatchIndex]:
    """All batch indices (s, t), lexicographic by s then t."""
    _check_params(K, r, g, require_r_below_K=False)
    out = []
    for s in enum_subsets(K, r):
        for t in combinations(s, g):
            out.append(BatchIndex(s, t))
    return out


def enum_pi(K: int, r: int, g: int) -> list[GroupIndex]:
    """All multicast group indices (i, j), same ordering convention as omega."""
    _check_params(K, r, g, require_r_below_K=True)
    out = []
    for i in enum_subsets(K, r + 1):
        for j in combinations(i, g + 1):
            out.append(GroupIndex(i, j))
    return out


def group_divisor(K: int, r: int, g: int) -> int:
    """File-count divisor of a basic scheme, its number of batches:
    C(K, r) * C(r, g)."""
    return binomial(K, r) * binomial(r, g)


def batch_size(N: int, K: int, r: int, g: int) -> int:
    """Files per batch: N / (C(K,r) * C(r,g)); N must divide evenly."""
    _check_params(K, r, g, require_r_below_K=False)
    if N < 1:
        raise InvalidParameterError(f"file count must be positive, got {N}")
    denom = group_divisor(K, r, g)
    if N % denom:
        raise DivisibilityError(
            f"file count {N} is not a multiple of C({K},{r})*C({r},{g}) = {denom}; "
            f"smallest admissible count is {denom}",
            min_files=denom,
        )
    return N // denom


def _check_params(K: int, r: int, g: int, *, require_r_below_K: bool) -> None:
    if K < 1:
        raise InvalidParameterError(f"node count must be positive, got K={K}")
    if not 1 <= g <= r:
        raise InvalidParameterError(f"need 1 <= g <= r, got g={g}, r={r}")
    if require_r_below_K:
        if r >= K:
            raise InvalidParameterError(
                f"no multicast group fits: need r < K, got r={r}, K={K}"
            )
    elif r > K:
        raise InvalidParameterError(f"need r <= K, got r={r}, K={K}")
