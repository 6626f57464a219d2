"""Planning fractional (storage, computation) targets as file-group mixtures.

A fractional target is realized by partitioning the file corpus into groups
and running an independent basic scheme per group. Every plan is a
file-weighted mix (_mix) of two group lists, built by one of three
constructions:

  fractional storage   -> the corners (floor(r), g) and (ceil(r), g)
  fractional coding    -> the storage splits at the neighboring integer g
  saturation approach  -> the storage split at g = floor(r) and the
                          saturation pair (floor(r), floor(r)) /
                          (ceil(r), ceil(r)), weighted so the implied coding
                          parameter lands between floor(r) and g_r

Beyond saturation the plan is the plan at c_star: extra computation budget
buys no further communication savings, so the plan's effective computation
stays at the saturation load.

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
    c_star,
    g_r,
    implied_g,
    to_fraction,
)
from .combinatorics import binomial
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
    """A weighted list of basic schemes realizing a fractional target."""

    K: int
    N: int
    target_r: Fraction
    target_c: Fraction
    groups: tuple[GroupSpec, ...]
    predicted_r: Fraction
    predicted_c: Fraction
    predicted_L: Fraction
    route: str  # one of corner, e1, e2, e3, clamp


def split_e1(K: int, r: RationalLike, g: int) -> tuple[Fraction, list[GroupSpec]]:
    """Fractional-storage split at integer g.

    Returns the unique alpha with r = (1-alpha) floor(r) + alpha ceil(r) and
    the one or two groups realizing it.
    """
    r = to_fraction(r)
    if not 1 <= r < K:
        raise InvalidParameterError(f"need 1 <= r < {K}, got r={r}")
    lo = math.floor(r)
    if not 1 <= g <= lo:
        raise InvalidParameterError(
            f"storage split requires 1 <= g <= floor(r) = {lo}, got g={g}"
        )
    alpha = r - lo
    if alpha == 0:
        return Fraction(0), [GroupSpec(Fraction(1), lo, g)]
    return alpha, [
        GroupSpec(1 - alpha, lo, g),
        GroupSpec(alpha, lo + 1, g),
    ]


def _mix(a: list[GroupSpec], b: list[GroupSpec], w: Fraction) -> list[GroupSpec]:
    """1 - w of groups a plus w of groups b: duplicate (r, g) groups are
    combined, zero weights dropped, first-seen order kept."""
    acc: dict[tuple[int, int], Fraction] = {}
    for weight, groups in ((1 - w, a), (w, b)):
        for sp in groups:
            acc[sp.r, sp.g] = acc.get((sp.r, sp.g), Fraction(0)) + weight * sp.fraction
    return [GroupSpec(f, r, g) for (r, g), f in acc.items() if f]


def split_e2(K: int, r: RationalLike, g: RationalLike) -> tuple[Fraction, list[GroupSpec]]:
    """Fractional-coding split: two storage splits at the neighboring integers.

    Returns the unique beta with g = (1-beta) floor(g) + beta ceil(g).
    """
    r, g = to_fraction(r), to_fraction(g)
    lo_g = math.floor(g)
    beta = g - lo_g
    if beta == 0:
        return Fraction(0), split_e1(K, r, lo_g)[1]
    if not 1 <= g < math.floor(r):
        raise InvalidParameterError(
            f"fractional coding split requires 1 <= g < floor(r); got g={g}, "
            f"r={r} (beyond floor(r) use the saturation split)"
        )
    return beta, _mix(split_e1(K, r, lo_g)[1], split_e1(K, r, lo_g + 1)[1], beta)


def split_e3(K: int, r: RationalLike, c: RationalLike) -> tuple[Fraction, list[GroupSpec]]:
    """Saturation-approach split for fractional r.

    Mixes the storage split at g = floor(r) with the saturation pair
    (floor(r), floor(r)) / (ceil(r), ceil(r)) in the proportion lambda that
    puts the implied coding parameter between floor(r) and g_r. Returns
    theta = lambda (r - floor(r)), the weight of the (ceil(r), ceil(r)) group.
    """
    r, c = to_fraction(r), to_fraction(c)
    if not 1 <= r < K:
        raise InvalidParameterError(f"need 1 <= r < {K}, got r={r}")
    lo, hi = math.floor(r), math.ceil(r)
    if lo == hi:
        raise InvalidParameterError("saturation split applies to fractional r only")
    if hi == K:
        raise InvalidParameterError(
            "saturation split is empty when ceil(r) = K; the saturation "
            "parameter equals floor(r), use the storage split there"
        )
    g_implied = implied_g(K, r, c)
    gr = g_r(K, r)
    if not lo < g_implied <= gr:
        raise InvalidParameterError(
            f"computation budget {c} implies coding parameter {g_implied}, "
            f"outside the saturation interval ({lo}, {gr}]"
        )
    alpha = r - lo
    lam = (g_implied - lo) / (gr - lo)
    saturation = [GroupSpec(1 - alpha, lo, lo), GroupSpec(alpha, hi, hi)]
    return lam * alpha, _mix(split_e1(K, r, lo)[1], saturation, lam)


def _route(K: int, r: Fraction, c: Fraction) -> tuple[str, list[GroupSpec]]:
    """The route label and the groups of the plan for (r, c); beyond
    saturation, the groups of the plan at c_star."""
    if not 1 <= c <= r:
        raise InvalidParameterError(f"need 1 <= c <= r, got c={c}, r={r}")
    if not r < K:
        raise InvalidParameterError(f"need r < K for planning, got r={r}, K={K}")
    g, gr = implied_g(K, r, c), g_r(K, r)
    clamp = g > gr
    if clamp:
        g, c = gr, c_star(K, r)
    if g.denominator == 1:
        route, groups = ("corner" if r.denominator == 1 else "e1"), split_e1(K, r, int(g))[1]
    elif g < math.floor(r):
        route, groups = "e2", split_e2(K, r, g)[1]
    else:
        route, groups = "e3", split_e3(K, r, c)[1]
    return ("clamp" if clamp else route), groups


def group_divisor(K: int, r: int, g: int) -> int:
    """File-count divisor of a basic scheme: C(K, r) * C(r, g)."""
    return binomial(K, r) * binomial(r, g)


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
    if N < 1 or N % need:
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
        target_r=r,
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

