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
schemes below c_star. A load at (r, c) is the load of the plan _route makes
for it in ints, not a chord of the curve's points. All arithmetic is exact.
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


def _too_long(n: int) -> bool:
    """Whether n has more than 4300 digits, judged from its bits first (2^14284 < 10^4300)."""
    return n.bit_length() > 14284 and abs(n) >= 10**4300


def int_text(n: int) -> str:
    """n in decimal, or past 4300 digits, which the interpreter does not print,
    "at least 2^k" (or "at most -2^k" for a negative n)."""
    bound = f"at {'most -' if n < 0 else 'least '}2^{n.bit_length() - 1}"
    return bound if _too_long(n) else str(n)


def to_fraction(x: RationalLike) -> Fraction:
    """Exact conversion; floats go through their shortest decimal form. A value
    that names no finite rational, or has a part past 4300 digits (an int's
    default print limit; text is judged before it is expanded, an exponent
    counting as many digits), is an InvalidParameterError."""
    spelled_long = isinstance(x, str) and _spelled_digits(x) > 4300
    if type(x) is not Fraction and not spelled_long:  # a Fraction is its own conversion
        try:
            x = Fraction(str(x) if isinstance(x, float) else x)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise InvalidParameterError(f"not a finite rational number: {x!r}") from None
    if spelled_long or _too_long(x.numerator) or _too_long(x.denominator):
        raise InvalidParameterError("not a finite rational number of at most 4300 digits")
    return x


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
    """Optimal full-computation load: the chord between the neighboring integer
    points, the load of (b - A)/b of the files at (lo, lo) and A/b at (hi, hi)
    for r = lo + A/b and hi = ceil(r); at integer r, that point's value."""
    r = to_fraction(r)
    _check_r(K, r, allow_K=True)
    (lo, A), b, hi = divmod(r.numerator, r.denominator), r.denominator, math.ceil(r)
    return _groups_load(K, b, [(b - A, lo, lo), (A, hi, hi)])


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
    a, bK = r.numerator, r.denominator * K  # r/K = a/(b K): the closed forms at K' = b K, r' = a
    points = [CornerPoint(Fraction(g), basic_computation(bK, a, g), basic_communication(bK, a, g))
              for g in range(1, a // r.denominator + 1)]
    cs, ls = c_star(K, r), optimal_load_cdc(K, r)
    if cs > points[-1].c:
        points.append(CornerPoint(g_r(K, r), cs, ls))
    else:  # integer r, or ceil(r) = K (g_r = floor(r)): the last corner saturates
        assert cs == points[-1].c and ls == points[-1].L
    for prev, nxt in zip(points, points[1:]):
        if not (prev.c < nxt.c and nxt.L <= prev.L):
            raise InternalConsistencyError(f"non-monotone curve points: {prev} -> {nxt}")
    return TradeoffCurve(K, r, tuple(points))


def _route(K: int, r: Fraction, c: Fraction) -> tuple[str, int, list[tuple[int, int, int]]]:
    """The route label, a denominator D and the groups (n, r', g') holding n/D
    of the files each: 1 - w of the curve point below the implied g and w of the
    point above, w = (g - below) / (above - below), in first-seen order without
    zero weights. At r = a/b, c = p/q, lo, A = divmod(a, b), hi = ceil(r) and
    u = K b - a: g = G/Q = (p K b - a q)/(q u), g_r = Gr/u, and the point at
    integer x is (b - A)/b of (lo, x) and A/b of (hi, x)."""
    a, b, p, q = r.numerator, r.denominator, c.numerator, c.denominator
    if not (q <= p and p * b <= a * q):
        raise InvalidParameterError(f"need 1 <= c <= r, got c={c}, r={r}")
    if not a < K * b:
        raise InvalidParameterError(f"need r < K for planning, got r={r}, K={K}")
    lo, A = divmod(a, b)
    hi = lo + (A != 0)
    (G, Q), (Gr, u) = implied_g_terms(K, a, b, p, q), g_r_terms(K, a, b)
    clamp = G * u > Gr * Q  # g > g_r: plan at g_r = Gr q / Q
    base, W = divmod(Gr * q if clamp else G, Q)  # g = base + W/Q
    if not W:
        route, D, groups = ("corner" if b == 1 else "e1"), b, [(b - A, lo, base), (A, hi, base)]
    elif base < lo:  # w = W/Q toward the next corner
        route, D = "e2", Q * b
        groups = [((Q - W) * (b - A), lo, base), ((Q - W) * A, hi, base),
                  (W * (b - A), lo, base + 1), (W * A, hi, base + 1)]
    else:  # w = W / (q A (K - hi)) toward g_r, as g_r - lo = A (K - hi)/u; 1 on clamp
        route, S = "e3", q * (K - hi)
        D, groups = S * b, [((b - A) * S, lo, lo), (A * S - W, hi, lo), (W, hi, hi)]
    return ("clamp" if clamp else route), D, [sp for sp in groups if sp[0]]


def _groups_load(K: int, D: int, groups: list[tuple[int, int, int]]) -> Fraction:
    """Communication load of groups (n, r', g') holding n/D of the files each, M = lcm g'."""
    M = math.lcm(*[g for _, _, g in groups])
    total = 0
    for n, r_, g in groups:
        total += n * scaled_communication(K, r_) * (M // g)
    return Fraction(total, D * K * M)


def query_load(curve: TradeoffCurve, c: RationalLike) -> Fraction:
    """Least load at computation budget c, constant for c >= c_star: the load of the plan
    _route makes for (curve.r, c), not an interpolation of the curve (it equals the envelope's)."""
    c = to_fraction(c)
    if not 1 <= c <= curve.r:
        raise InvalidParameterError(f"computation load {c} outside [1, {curve.r}]")
    return _groups_load(curve.K, *_route(curve.K, curve.r, c)[1:])


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
        for i in range(1, samples + 1):  # i/(samples + 1) of the way from a to b
            t = Fraction(i, samples + 1)
            yield a.c + (b.c - a.c) * t, a.L + (b.L - a.L) * t, "chord"
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
