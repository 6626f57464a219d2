"""Closed-form storage-computation-communication tradeoff curves.

For storage space r and integer coding parameter g, the achievable pair is

    c(r, g) = r/K + (1 - r/K) * g        (computation load)
    L(r, g) = (1/g) * (1 - r/K)          (communication load)

and every load in the package is built from these closed forms, each kept
once: as int terms (scaled_*, *_terms) and as the Fractions built on them.
The curve over c is the envelope of the corners g = 1..floor(r) and the
saturation point (c_star, optimal_load_cdc), flat beyond it up to c = r.
optimal_load_cdc is the chord of the neighboring integer points, which no
scheme beats by the converse of Li, Maddah-Ali, Yu and Avestimehr
(arXiv:1604.07086). Below c_star the curve rests on

    P_g(r, c) = (2/(g+1))(1 - r/K) - (c - 1)/(g(g+1)):

each basic point (r', g') has L' - P_g(r', c') = u(g - g')(g - g' + 1) /
(g g' (g+1)) >= 0, where u = 1 - r'/K, zero exactly when g' is g or g + 1
or r' = K. P_g is affine, so it bounds every file-group mixture of the
library's basic schemes, and at g = floor(implied g) the curve's load, which
a plan reaches, is max(P_g, optimal_load_cdc). It is no converse for other
schemes below c_star. All arithmetic is exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError, InvalidParameterError

RationalLike = int | float | str | Fraction


def _spelled_digits(text: str) -> int:
    """Digits of the mantissa plus the exponent: a bound on the digits of what it names."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        return sum(map(str.isdigit, mantissa)) + (abs(int(exponent)) if e else 0)
    except ValueError:  # no exponent that Fraction reads either
        return 0


def to_fraction(x: RationalLike) -> Fraction:
    """Exact conversion; floats go through their shortest decimal form. A value
    that names no finite rational is an InvalidParameterError, as is text past
    4300 digits, an int's default print limit (an exponent counts as many)."""
    if type(x) is Fraction:  # immutable, so it is its own conversion
        return x
    if isinstance(x, str) and _spelled_digits(x) > 4300:
        raise InvalidParameterError(f"not a finite rational number of at most 4300 digits: {x!r}")
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidParameterError(f"not a finite rational number: {x!r}") from None


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


def _check_r(K: int, r: Fraction, *, allow_K: bool = False) -> None:
    if K < 2:
        raise InvalidParameterError(f"need at least 2 nodes, got K={K}")
    top_ok = r <= K if allow_K else r < K
    if not (1 <= r and top_ok):
        bound = "<=" if allow_K else "<"
        raise InvalidParameterError(f"need 1 <= r {bound} {K}, got r={r}")


def scaled_computation(K: int, r: int | Fraction, g: int | Fraction) -> int | Fraction:
    """K times a basic scheme's computation load: r + (K - r) g."""
    return r + (K - r) * g


def scaled_communication(K: int, r: int | Fraction) -> int | Fraction:
    """K g times a basic scheme's communication load: K - r."""
    return K - r


def basic_computation(K: int, r: int | Fraction, g: int | Fraction) -> Fraction:
    """Computation load of a basic scheme: r/K + (1 - r/K) g."""
    return Fraction(scaled_computation(K, r, g), K)


def basic_communication(K: int, r: int | Fraction, g: int | Fraction) -> Fraction:
    """Communication load of a basic scheme: (1/g)(1 - r/K)."""
    return Fraction(scaled_communication(K, r), K * g)


def implied_g_terms(K: int, a: int, b: int, p: int, q: int) -> tuple[int, int]:
    """The g whose computation load is c, (c - r/K)/(1 - r/K), as ints at
    r = a/b, c = p/q: (p K b - a q) / (q (K b - a)); needs r < K."""
    return p * K * b - a * q, q * (K * b - a)


def g_r_terms(K: int, a: int, b: int) -> tuple[int, int]:
    """g_r at r = a/b as ints: (lo u + A (K - ceil(r))) / u; lo, A = divmod(a, b); u = K b - a."""
    (lo, A), u = divmod(a, b), K * b - a
    return lo * u + A * (K - lo - (A != 0)), u


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
    """Optimal full-computation load: the chord between the neighboring
    integer points, which at integer r is that point's value."""
    r = to_fraction(r)
    _check_r(K, r, allow_K=True)
    lo = math.floor(r)
    alpha = r - lo
    return (1 - alpha) * lstar_formula(K, lo) + alpha * lstar_formula(K, math.ceil(r))


def g_r(K: int, r: RationalLike) -> Fraction:
    """Saturation coding parameter: floor(r) plus the fractional correction
    (r - floor(r)) * (K - ceil(r)) / (K - r); equals floor(r) for integer r."""
    r = to_fraction(r)
    _check_r(K, r)
    return Fraction(*g_r_terms(K, r.numerator, r.denominator))


def c_star(K: int, r: RationalLike) -> Fraction:
    """Computation load past which the minimum load holds: (a + g_r u) / (b K) at r = a/b."""
    r = to_fraction(r)
    _check_r(K, r)
    return Fraction(r.numerator + g_r_terms(K, r.numerator, r.denominator)[0], r.denominator * K)


def build_curve(K: int, r: RationalLike) -> TradeoffCurve:
    """Envelope of the corners and the saturation point, flat out to c = r.

    The saturation point is (c_star, optimal_load_cdc): the memory-sharing
    mixture of the (floor r, floor r) and (ceil r, ceil r) corners. The
    points are already strictly convex, so they are the envelope: the slope
    between corners g and g + 1 is -1/(g(g + 1)), and from the last corner
    to the saturation point it is -1/(floor(r) ceil(r)).
    """
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


def curve_rows(curve: TradeoffCurve, samples: int = 0) -> Iterator[tuple[Fraction, Fraction, str]]:
    """(c, L, segment_kind) rows for emission, made one at a time as they are
    read: the envelope points, the given number of interpolated samples
    inside each segment, and the flat tail. A negative count is refused at
    the call, before any row is read."""
    if samples < 0:
        raise InvalidParameterError("resolution must be non-negative")
    return _rows(curve, samples)


def _rows(curve: TradeoffCurve, samples: int) -> Iterator[tuple[Fraction, Fraction, str]]:
    points = curve.points
    for a, b in zip(points, points[1:]):
        yield a.c, a.L, "corner"
        for i in range(1, samples + 1):
            c = a.c + (b.c - a.c) * Fraction(i, samples + 1)
            yield c, _chord(a, b, c), "chord"
    yield points[-1].c, points[-1].L, "corner"
    if curve.r > points[-1].c:
        for i in range(1, samples + 1):
            c = points[-1].c + (curve.r - points[-1].c) * Fraction(i, samples + 1)
            yield c, points[-1].L, "flat"
        yield curve.r, points[-1].L, "flat"


def curve_to_dict(curve: TradeoffCurve) -> dict:
    return {
        "K": curve.K,
        "r": str(curve.r),
        "points": [
            {"g": str(p.g), "c": str(p.c), "L": str(p.L), "c_value": float(p.c), "L_value": float(p.L)}
            for p in curve.points
        ],
        "flat_tail_end": str(curve.r),
        "flat_load": str(curve.points[-1].L),
    }
