"""Closed-form storage-computation-communication tradeoff curves.

For storage space r and integer coding parameter g, the achievable pair is

    c(r, g) = r/K + (1 - r/K) * g        (computation load)
    L(r, g) = (1/g) * (1 - r/K)          (communication load)

equivalently L = (1 - r/K)^2 / (c - r/K); basic_computation and
basic_communication evaluate them, and every other load in the package is
built from those two. The curve over c for fixed r is the lower convex
envelope of the corner points g = 1..floor(r) together with the saturation
point (c_star(r), optimal_load_cdc(r)); beyond c_star(r) the load stays flat
up to c = r. At fractional r the saturation load is the chord between the
neighboring integer points: by the converse of Li, Maddah-Ali, Yu and
Avestimehr (arXiv:1604.07086) no scheme does better, and computing fewer
intermediate values cannot lower it. The direct formula lstar_formula(r)
lies below that chord and is only a bound no plan reaches. All arithmetic is
exact rational; floats appear only when rows are serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import InternalConsistencyError, InvalidParameterError

RationalLike = int | float | str | Fraction


def to_fraction(x: RationalLike) -> Fraction:
    """Exact conversion; floats go through their shortest decimal form."""
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class CornerPoint:
    """One (g, c, L) point of the tradeoff; g may be fractional at saturation."""

    g: Fraction
    c: Fraction
    L: Fraction


@dataclass(frozen=True)
class TradeoffCurve:
    """Envelope points for fixed (K, r), flat from the last point to c = r."""

    K: int
    r: Fraction
    points: tuple[CornerPoint, ...]
    flat_tail_end: Fraction
    resolution: int = 0

    @property
    def c_star(self) -> Fraction:
        return self.points[-1].c

    @property
    def flat_load(self) -> Fraction:
        return self.points[-1].L


def _check_r(K: int, r: Fraction, *, allow_K: bool = False) -> None:
    if K < 2:
        raise InvalidParameterError(f"need at least 2 nodes, got K={K}")
    top_ok = r <= K if allow_K else r < K
    if not (1 <= r and top_ok):
        bound = "<=" if allow_K else "<"
        raise InvalidParameterError(f"need 1 <= r {bound} {K}, got r={r}")


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


def corner_load(K: int, r: RationalLike, g: int) -> CornerPoint:
    """The integer-g corner of the curve for storage space r."""
    r = to_fraction(r)
    _check_r(K, r)
    if not 1 <= g <= math.floor(r):
        raise InvalidParameterError(
            f"corner parameter must satisfy 1 <= g <= floor(r) = {math.floor(r)}, got {g}"
        )
    return CornerPoint(Fraction(g), basic_computation(K, r, g), basic_communication(K, r, g))


def lstar_formula(K: int, r: RationalLike) -> Fraction:
    """(1/r)(1 - r/K), evaluated directly (also at fractional r).

    At integer r this is the optimal load. At fractional r it lies strictly
    below optimal_load_cdc, the chord of the neighboring integer points: a
    lower bound that no plan reaches, not a point of the curve.
    """
    r = to_fraction(r)
    _check_r(K, r, allow_K=True)
    return basic_communication(K, r, r)


def optimal_load_cdc(K: int, r: RationalLike) -> Fraction:
    """Optimal full-computation load: the integer-point value, or the chord
    between the neighboring integer points for fractional r."""
    r = to_fraction(r)
    _check_r(K, r, allow_K=True)
    lo, hi = math.floor(r), math.ceil(r)
    if lo == hi:
        return lstar_formula(K, r)
    alpha = r - lo
    return (1 - alpha) * lstar_formula(K, lo) + alpha * lstar_formula(K, hi)


def g_r(K: int, r: RationalLike) -> Fraction:
    """Saturation coding parameter: floor(r) plus the fractional correction
    (r - floor(r)) * (K - ceil(r)) / (K - r); equals floor(r) for integer r."""
    r = to_fraction(r)
    _check_r(K, r)
    lo = math.floor(r)
    return lo + (r - lo) * (K - math.ceil(r)) / (K - r)


def c_star(K: int, r: RationalLike) -> Fraction:
    """Computation load beyond which the minimum communication load holds."""
    r = to_fraction(r)
    _check_r(K, r)
    return basic_computation(K, r, g_r(K, r))


def build_curve(K: int, r: RationalLike, resolution: int = 0) -> TradeoffCurve:
    """Envelope of the corners and the saturation point, flat out to c = r.

    The saturation point is (c_star, optimal_load_cdc): the memory-sharing
    mixture of the (floor r, floor r) and (ceil r, ceil r) corners. The
    points are already strictly convex, so they are the envelope: the slope
    between corners g and g + 1 is -1/(g(g + 1)), and from the last corner
    to the saturation point it is -1/(floor(r) ceil(r)).
    """
    r = to_fraction(r)
    _check_r(K, r)
    if resolution < 0:
        raise InvalidParameterError("resolution must be non-negative")
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
    return TradeoffCurve(K, r, tuple(points), flat_tail_end=r, resolution=resolution)


def query_load(curve: TradeoffCurve, c: RationalLike) -> Fraction:
    """Envelope load at computation budget c, by exact linear interpolation;
    constant at the saturation value for c >= c_star."""
    c = to_fraction(c)
    if not 1 <= c <= curve.flat_tail_end:
        raise InvalidParameterError(
            f"computation load {c} outside [1, {curve.flat_tail_end}]"
        )
    points = curve.points
    if c >= points[-1].c:
        return points[-1].L
    for a, b in zip(points, points[1:]):
        if a.c <= c <= b.c:
            return a.L + (b.L - a.L) * (c - a.c) / (b.c - a.c)
    raise InvalidParameterError(f"computation load {c} below the first corner")


def curve_rows(curve: TradeoffCurve) -> list[tuple[Fraction, Fraction, str]]:
    """(c, L, segment_kind) rows for emission: the envelope points, optional
    interpolated samples at the curve's resolution, and the flat tail."""
    rows: list[tuple[Fraction, Fraction, str]] = []
    samples = curve.resolution
    points = curve.points
    for a, b in zip(points, points[1:]):
        rows.append((a.c, a.L, "corner"))
        for i in range(1, samples + 1):
            c = a.c + (b.c - a.c) * Fraction(i, samples + 1)
            rows.append((c, query_load(curve, c), "chord"))
    rows.append((points[-1].c, points[-1].L, "corner"))
    if curve.flat_tail_end > points[-1].c:
        for i in range(1, samples + 1):
            c = points[-1].c + (curve.flat_tail_end - points[-1].c) * Fraction(i, samples + 1)
            rows.append((c, points[-1].L, "flat"))
        rows.append((curve.flat_tail_end, points[-1].L, "flat"))
    return rows


def curve_to_dict(curve: TradeoffCurve) -> dict:
    return {
        "K": curve.K,
        "r": str(curve.r),
        "points": [
            {"g": str(p.g), "c": str(p.c), "L": str(p.L), "c_value": float(p.c), "L_value": float(p.L)}
            for p in curve.points
        ],
        "flat_tail_end": str(curve.flat_tail_end),
        "flat_load": str(curve.flat_load),
    }


def curve_to_json(curve: TradeoffCurve, *, indent: int = 2) -> str:
    return json.dumps(curve_to_dict(curve), indent=indent)
