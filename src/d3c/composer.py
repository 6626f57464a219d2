"""Planning fractional (storage, computation) targets as file-group mixtures.

A fractional target is realized by partitioning the file corpus into groups
and running an independent basic scheme per group. The curve for storage r
has a point at each integer coding parameter g = 1..floor(r), the storage
split (floor(r), g) / (ceil(r), g) in the proportion that averages to r, and
the saturation point at g_r, the pair (floor(r), floor(r)) /
(ceil(r), ceil(r)). One rule plans every target: the budget c implies a
coding parameter g, and the plan is the chord mix (_mix) of the two curve
points around g, weighted so the mix lands on g. The point below is
floor(g); the point above is floor(g) + 1 below floor(r) (route e2) and the
saturation point past it (route e3). An integer g is one point (route corner
at integer r, e1 otherwise).

Beyond saturation the plan is the plan at c_star (route clamp): extra
computation budget buys no further communication savings, so the plan's
effective computation stays at the saturation load.

Weighted loads are exact rationals, so at any admissible corpus size every
target is hit exactly; no tolerance slack appears in any interface. The
planner reports the smallest admissible file count instead of padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analytics import (
    RationalLike,
    basic_communication,
    basic_computation,
    g_r,
    implied_g,
    to_fraction,
)
from .combinatorics import group_divisor
from .errors import DivisibilityError, InternalConsistencyError, InvalidParameterError


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


def _mix(a: list[GroupSpec], b: list[GroupSpec], w: Fraction) -> list[GroupSpec]:
    """1 - w of groups a plus w of groups b: duplicate (r, g) groups are
    combined, zero weights dropped, first-seen order kept."""
    acc: dict[tuple[int, int], Fraction] = {}
    for weight, groups in ((1 - w, a), (w, b)):
        for sp in groups:
            acc[sp.r, sp.g] = acc.get((sp.r, sp.g), Fraction(0)) + weight * sp.fraction
    return [GroupSpec(f, r, g) for (r, g), f in acc.items() if f]


def _point(r: Fraction, x: int | Fraction) -> list[GroupSpec]:
    """The groups of the curve point at coding parameter x: the storage
    split (floor(r), x) / (ceil(r), x) at integer x, the saturation pair
    (floor(r), floor(r)) / (ceil(r), ceil(r)) at fractional x = g_r."""
    lo, alpha = math.floor(r), r - math.floor(r)
    if x.denominator == 1:
        pairs = ((1 - alpha, lo, int(x)), (alpha, lo + 1, int(x)))
    else:
        pairs = ((1 - alpha, lo, lo), (alpha, lo + 1, lo + 1))
    return [GroupSpec(f, r_, g) for f, r_, g in pairs if f]


def _route(K: int, r: Fraction, c: Fraction) -> tuple[str, list[GroupSpec]]:
    """The route label and the groups of the plan for (r, c): the chord mix
    of the two curve points around the implied coding parameter; beyond
    saturation, the groups of the plan at c_star."""
    if not 1 <= c <= r:
        raise InvalidParameterError(f"need 1 <= c <= r, got c={c}, r={r}")
    if not r < K:
        raise InvalidParameterError(f"need r < K for planning, got r={r}, K={K}")
    g, gr = implied_g(K, r, c), g_r(K, r)
    clamp = g > gr
    if clamp:
        g = gr
    base = math.floor(g)
    if base == g:
        route, groups = ("corner" if r.denominator == 1 else "e1"), _point(r, base)
    else:
        # below floor(r) the next corner; above it the saturation point
        route, upper = ("e2", base + 1) if base < math.floor(r) else ("e3", gr)
        groups = _mix(_point(r, base), _point(r, upper), (g - base) / (upper - base))
    return ("clamp" if clamp else route), groups


def _files_needed(K: int, groups: list[GroupSpec]) -> int:
    """Smallest corpus size at which every group's file count is an integer
    multiple of its scheme's divisor."""
    need = 1
    for sp in groups:
        divisor = group_divisor(K, sp.r, sp.g)
        p, q = sp.fraction.numerator, sp.fraction.denominator
        need = math.lcm(need, q * divisor // math.gcd(divisor, p))
    return need


def minimal_files(K: int, r: RationalLike, c: RationalLike) -> int:
    """Smallest corpus size for which the plan's groups all come out integer
    and meet their schemes' divisibility requirements."""
    return _files_needed(K, _route(K, to_fraction(r), to_fraction(c))[1])


def plan_for_target(K: int, N: int, r: RationalLike, c: RationalLike) -> CompositePlan:
    """Build the composite plan hitting (r, c) on a corpus of N files."""
    r, c = to_fraction(r), to_fraction(c)
    route, groups = _route(K, r, c)
    need = _files_needed(K, groups)
    if N < 1:
        raise InvalidParameterError(f"file count must be positive, got {N}")
    if N % need:
        raise DivisibilityError(
            f"corpus of {N} files cannot be split for target (r={r}, c={c}); "
            f"the smallest admissible file count is {need}",
            min_files=need,
        )
    bound = []
    offset = 0
    for sp in groups:
        count = int(sp.fraction * N)
        bound.append(GroupSpec(sp.fraction, sp.r, sp.g, offset + 1, count))
        offset += count
    if offset != N:
        raise InternalConsistencyError(f"group counts sum to {offset}, expected {N}")
    predicted_r = sum(sp.fraction * sp.r for sp in bound)
    predicted_c = sum(sp.fraction * basic_computation(K, sp.r, sp.g) for sp in bound)
    predicted_L = sum(sp.fraction * basic_communication(K, sp.r, sp.g) for sp in bound)
    if predicted_r != r:
        raise InternalConsistencyError(f"weighted storage {predicted_r} != target {r}")
    if route != "clamp" and predicted_c != c:
        raise InternalConsistencyError(f"weighted computation {predicted_c} != target {c}")
    return CompositePlan(
        K=K,
        N=N,
        target_c=c,
        groups=tuple(bound),
        predicted_r=predicted_r,
        predicted_c=predicted_c,
        predicted_L=predicted_L,
        route=route,
    )


def safe_iva_bits(plan: CompositePlan) -> int:
    """Smallest whole-byte value size meeting every group's segment
    divisibility (g must divide batch_files * T)."""
    need = 1
    for sp in plan.groups:
        eta = sp.file_count // group_divisor(plan.K, sp.r, sp.g)
        need = math.lcm(need, sp.g // math.gcd(sp.g, eta * 8))
    return 8 * need

