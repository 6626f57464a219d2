"""Reference planner: the Fraction-arithmetic router that the integer
planner in ``d3c.analytics`` and ``d3c.composer`` replaced, kept verbatim
(``_mix``, ``_point``, ``_route``, ``_files_needed``) with the Fraction
closed forms it was built on, so tests can check that both plan every target
alike; and the Fraction envelope that ``build_curve`` built and whose chords
``query_load`` interpolated (``build_curve``, ``_chord``, ``query_load``),
so tests can check that the route's loads are the envelope's."""

from __future__ import annotations

import math
from fractions import Fraction

from d3c.analytics import CornerPoint, RationalLike, TradeoffCurve, _check_r, to_fraction
from d3c.combinatorics import group_divisor
from d3c.composer import GroupSpec
from d3c.errors import InternalConsistencyError, InvalidParameterError


def basic_computation(K: int, r: int | Fraction, g: int | Fraction) -> Fraction:
    """Computation load of a basic scheme: r/K + (1 - r/K) g."""
    return Fraction(r, K) + (1 - Fraction(r, K)) * g


def basic_communication(K: int, r: int | Fraction, g: int | Fraction) -> Fraction:
    """Communication load of a basic scheme: (1/g)(1 - r/K)."""
    return (1 - Fraction(r, K)) / g


def implied_g(K: int, r: Fraction, c: Fraction) -> Fraction:
    """The coding parameter whose computation load is c: the inverse of
    basic_computation in g, (c - r/K)/(1 - r/K); needs r < K."""
    return (c - Fraction(r, K)) / (1 - Fraction(r, K))


def g_r(K: int, r: Fraction) -> Fraction:
    """Saturation coding parameter: floor(r) plus the fractional correction
    (r - floor(r)) * (K - ceil(r)) / (K - r); needs 1 <= r < K."""
    lo = math.floor(r)
    return lo + (r - lo) * (K - math.ceil(r)) / (K - r)


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


def reference_plan(K: int, r: Fraction, c: Fraction):
    """(route, [(fraction, r, g), ...], minimal files, (predicted r, c, L))
    for the target, as the Fraction planner made them."""
    route, groups = _route(K, r, c)
    loads = (
        sum(sp.fraction * sp.r for sp in groups),
        sum(sp.fraction * basic_computation(K, sp.r, sp.g) for sp in groups),
        sum(sp.fraction * basic_communication(K, sp.r, sp.g) for sp in groups),
    )
    return route, [(sp.fraction, sp.r, sp.g) for sp in groups], _files_needed(K, groups), loads


def corner_load(K: int, r: Fraction, g: int) -> CornerPoint:
    """The integer-g corner of the curve for storage space r."""
    return CornerPoint(Fraction(g), basic_computation(K, r, g), basic_communication(K, r, g))


def c_star(K: int, r: Fraction) -> Fraction:
    """Computation load at the saturation coding parameter g_r."""
    return basic_computation(K, r, g_r(K, r))


def optimal_load_cdc(K: int, r: Fraction) -> Fraction:
    """The chord between the neighboring integer points (1/x)(1 - x/K)."""
    lo = math.floor(r)
    alpha = r - lo
    return (1 - alpha) * basic_communication(K, lo, lo) + alpha * basic_communication(
        K, math.ceil(r), math.ceil(r)
    )


def build_curve(K: int, r: RationalLike) -> TradeoffCurve:
    """Envelope of the corners and the saturation point, flat out to c = r."""
    r = to_fraction(r)
    _check_r(K, r)
    points = [corner_load(K, r, g) for g in range(1, math.floor(r) + 1)]
    cs, ls = c_star(K, r), optimal_load_cdc(K, r)
    if cs > points[-1].c:
        points.append(CornerPoint(g_r(K, r), cs, ls))
    else:
        # integer r, or fractional r with ceil(r) = K (where g_r = floor(r)
        # and the r = K side of the chord carries no load): the last corner
        # already is the saturation point
        assert cs == points[-1].c and ls == points[-1].L
    for prev, nxt in zip(points, points[1:]):
        if not (prev.c < nxt.c and nxt.L <= prev.L):
            raise InternalConsistencyError(f"non-monotone curve points: {prev} -> {nxt}")
    return TradeoffCurve(K, r, tuple(points))


def _chord(a: CornerPoint, b: CornerPoint, c: Fraction) -> Fraction:
    """Load at c on the segment from point a to point b, exactly."""
    return a.L + (b.L - a.L) * (c - a.c) / (b.c - a.c)


def query_load(curve: TradeoffCurve, c: RationalLike) -> Fraction:
    """Envelope load at computation budget c, by exact linear interpolation;
    constant at the saturation value for c >= c_star."""
    c = to_fraction(c)
    if not 1 <= c <= curve.r:
        raise InvalidParameterError(f"computation load {c} outside [1, {curve.r}]")
    points = curve.points
    if c >= points[-1].c:
        return points[-1].L
    # the first point sits at c = 1, so some segment holds c
    a, b = next((a, b) for a, b in zip(points, points[1:]) if c <= b.c)
    return _chord(a, b, c)
