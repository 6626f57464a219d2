"""Planning fractional (storage, computation) targets as file-group mixtures.

A fractional target is realized by partitioning the file corpus into groups
and running an independent basic scheme per group. The curve for storage r
has a point at each integer coding parameter g = 1..floor(r), the storage
split (floor(r), g) / (ceil(r), g) in the proportion that averages to r, and
the saturation point at g_r, the pair (floor(r), floor(r)) /
(ceil(r), ceil(r)). One rule plans every target: the budget c implies a
coding parameter g, and the plan is the chord mix (analytics._route) of the
two curve points around g, weighted so the mix lands on g. The point below
is floor(g); the point above is floor(g) + 1 below floor(r) (route e2) and
the saturation point past it (route e3). An integer g is one point (route
corner at integer r, e1 otherwise).

Beyond saturation the plan is the plan at c_star (route clamp): extra
computation budget buys no further communication savings, so the plan's
effective computation stays at the saturation load.

Planning runs in ints over one denominator per target, and every target is
hit exactly at any admissible corpus size; Fractions are built only for the
plan's fields. The smallest admissible file count is reported, not padded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analytics import RationalLike, _groups_load, _route, int_text, scaled_computation, to_fraction
from .combinatorics import group_divisor
from .errors import DivisibilityError, InternalConsistencyError, InvalidParameterError
from .scheme import byte_iva_bits


@dataclass(frozen=True)
class GroupSpec:
    """One file group: its corpus fraction and basic-scheme parameters.

    ``first_file``/``file_count`` are bound once a plan is fixed to a corpus.
    """

    fraction: Fraction
    r: int
    g: int
    first_file: int = 0
    file_count: int = 0


@dataclass(frozen=True)
class CompositePlan:
    """A weighted list of basic schemes realizing a fractional target.

    plan_for_target checks that predicted_r is the target storage; target_c
    is kept because it exceeds predicted_c on route clamp.
    """

    K: int
    N: int
    target_c: Fraction
    groups: tuple[GroupSpec, ...]
    predicted_r: Fraction
    predicted_c: Fraction
    predicted_L: Fraction
    route: str  # one of corner, e1, e2, e3, clamp


def _files_needed(K: int, D: int, groups: list[tuple[int, int, int]]) -> int:
    """Smallest corpus size N at which each group's n N / D files are a multiple of its divisor."""
    need = 1
    for n, r, g in groups:
        m = D * group_divisor(K, r, g)
        need = math.lcm(need, m // math.gcd(m, n))
    return need


def minimal_files(K: int, r: RationalLike, c: RationalLike) -> int:
    """Smallest corpus size for which the plan's groups all come out integer
    and meet their schemes' divisibility requirements."""
    return _files_needed(K, *_route(K, to_fraction(r), to_fraction(c))[1:])


def plan_for_target(K: int, N: int, r: RationalLike, c: RationalLike) -> CompositePlan:
    """Build the composite plan hitting (r, c) on a corpus of N files."""
    r, c = to_fraction(r), to_fraction(c)
    route, D, groups = _route(K, r, c)
    need = _files_needed(K, D, groups)
    if N < 1:
        raise InvalidParameterError(f"file count must be positive, got {int_text(N)}")
    if N % need:
        raise DivisibilityError(
            f"corpus of {int_text(N)} files cannot be split for target (r={r}, c={c}); "
            f"the smallest admissible file count is {int_text(need)}",
            min_files=need,
        )
    # checked in ints; on every route but clamp the plan's r and c are the target's
    bound, offset, stored, computed = [], 0, 0, 0
    for n, r_, g in groups:
        count = n * N // D
        bound.append(GroupSpec(Fraction(n, D), r_, g, offset + 1, count))
        offset += count
        stored += n * r_
        computed += n * scaled_computation(K, r_, g)
    if offset != N:
        raise InternalConsistencyError(f"group counts sum to {offset}, expected {N}")
    if stored * r.denominator != r.numerator * D:
        raise InternalConsistencyError(f"weighted storage {Fraction(stored, D)} != target {r}")
    if route != "clamp" and computed * c.denominator != c.numerator * D * K:
        raise InternalConsistencyError(
            f"weighted computation {Fraction(computed, D * K)} != target {c}"
        )
    return CompositePlan(
        K=K,
        N=N,
        target_c=c,
        groups=tuple(bound),
        predicted_r=r,
        predicted_c=Fraction(computed, D * K) if route == "clamp" else c,
        predicted_L=_groups_load(K, D, groups),
        route=route,
    )


def safe_iva_bits(plan: CompositePlan) -> int:
    """Smallest whole-byte value size meeting every group's segment
    divisibility: the lcm of each group's byte_iva_bits."""
    return math.lcm(*(
        byte_iva_bits(sp.g, sp.file_count // group_divisor(plan.K, sp.r, sp.g))
        for sp in plan.groups
    ))

