"""Tradeoff curve math: corners, saturation, envelope, interpolation.

Corner identities are cross-checked against the combinatorial counts of
actually constructed schemes, not just against the closed forms.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest
from fraction_planner import implied_g

from d3c.analytics import (
    basic_communication,
    basic_computation,
    build_curve,
    c_star,
    corner_load,
    curve_rows,
    g_r,
    implied_g_terms,
    lstar_formula,
    optimal_load_cdc,
    query_load,
    to_fraction,
)
from d3c.combinatorics import binomial
from d3c.composer import minimal_files, plan_for_target
from d3c.errors import InvalidParameterError
from d3c.scheme import build_basic_scheme, make_params, measure_computation


def test_to_fraction_accepts_common_forms():
    assert to_fraction("4/3") == Fraction(4, 3)
    assert to_fraction("1.8") == Fraction(9, 5)
    assert to_fraction(2) == 2
    assert to_fraction(4.5) == Fraction(9, 2)
    assert to_fraction(0.1) == Fraction(1, 10)  # decimal reading, not binary
    assert to_fraction(10**4300 - 1) == 10**4300 - 1  # 4300 digits, the most printed
    assert to_fraction(Fraction(1, 10**4300 - 1)).denominator == 10**4300 - 1


# each call passes the malformed value as one rational argument
RATIONAL_CALLS = {
    "build_curve": lambda x: build_curve(10, x),
    "query_load": lambda x: query_load(build_curve(10, "9/2"), x),
    "c_star": lambda x: c_star(10, x),
    "minimal_files": lambda x: minimal_files(4, "5/2", x),
    "plan_for_target": lambda x: plan_for_target(4, 12, x, 2),
}


# text past 4300 digits, an exponent counted as that many, is refused before
# it is expanded, and an int or Fraction with such a part from its bits: the
# interpreter would print no such value in a message
TOO_LONG = [
    "1e5000",
    "1e-5000",
    "1e20000000",
    pytest.param("1" * 4301, id="4301-digits"),
    pytest.param("1/" + "1" * 4301, id="4301-digit-denominator"),
    pytest.param(10**5000, id="int-10^5000"),
    pytest.param(10**4300, id="int-4301-digits"),
    pytest.param(Fraction(3, 10**5000), id="fraction-10^5000-denominator"),
    pytest.param(Fraction(-(10**4300), 7), id="fraction-4301-digit-numerator"),
]


@pytest.mark.parametrize("value", ["1/0", float("nan"), float("inf"), "abc", None, *TOO_LONG])
@pytest.mark.parametrize("call", sorted(RATIONAL_CALLS))
def test_malformed_rationals_are_invalid_parameters(call, value):
    with pytest.raises(InvalidParameterError, match="not a finite rational number"):
        RATIONAL_CALLS[call](value)


def test_corner_examples():
    first = corner_load(10, "4.5", 1)
    assert (first.c, first.L) == (1, Fraction(11, 20))
    golden = corner_load(3, 2, 2)
    assert (golden.c, golden.L) == (Fraction(4, 3), Fraction(1, 6))
    near_full = corner_load(100, Fraction(99), 1)
    assert near_full.L == Fraction(1, 100)


def test_corner_rejects_out_of_range():
    with pytest.raises(InvalidParameterError):
        corner_load(10, "4.5", 5)  # g > floor(r)
    with pytest.raises(InvalidParameterError):
        corner_load(10, "4.5", 0)
    with pytest.raises(InvalidParameterError):
        corner_load(10, 10, 1)  # r must stay below K


def test_corner_matches_constructed_scheme_counts():
    for K in range(2, 9):
        for r in range(1, K):
            for g in range(1, r + 1):
                N = binomial(K, r) * binomial(r, g)
                scheme = build_basic_scheme(make_params(K, N, r, g))
                point = corner_load(K, r, g)
                assert point.c == measure_computation(scheme)
                # signal count times signal size, counted combinatorially
                T = scheme.params.T
                per_node = binomial(K - 1, r) * binomial(r, g)
                bits = K * per_node * (scheme.params.eta * T // g)
                assert point.L == Fraction(bits, N * K * T)


def test_corner_identity_with_hyperbola_form():
    for K in (3, 7, 10):
        for r in (Fraction(3, 2), 2, Fraction(9, 2)):
            if r >= K:
                continue
            for g in range(1, math.floor(r) + 1):
                point = corner_load(K, r, g)
                gap = 1 - Fraction(r, K)
                assert point.L * (point.c - Fraction(r, K)) == gap * gap


def test_lstar_formula_values():
    assert lstar_formula(10, "4.5") == Fraction(11, 90)
    assert lstar_formula(10, 3) == Fraction(7, 30)
    assert lstar_formula(4, 4) == 0


def test_optimal_full_computation_load():
    assert optimal_load_cdc(10, 3) == Fraction(7, 30)
    assert optimal_load_cdc(5, 5) == 0
    # fractional storage takes the chord between the neighbor integer points
    assert optimal_load_cdc(10, "4.5") == Fraction(1, 8)
    assert optimal_load_cdc(10, "4.5") == (lstar_formula(10, 4) + lstar_formula(10, 5)) / 2
    with pytest.raises(InvalidParameterError):
        optimal_load_cdc(10, Fraction(1, 2))


def test_formula_never_exceeds_chord():
    # the direct formula is convex in r, so it sits on or below every chord
    for K in range(3, 11):
        for num in range(4 * K + 1, 4 * (K + 1)):
            r = Fraction(num, 4)
            if not 1 <= r <= K:
                continue
            assert lstar_formula(K, r) <= optimal_load_cdc(K, r)
    assert lstar_formula(10, "4.5") < optimal_load_cdc(10, "4.5")


def test_saturation_parameter():
    assert g_r(10, "4.5") == Fraction(49, 11)
    assert g_r(10, 4) == 4
    assert g_r(5, "4.5") == 4  # ceil(r) = K zeroes the correction
    with pytest.raises(InvalidParameterError):
        g_r(5, 5)


def test_saturation_computation_load():
    assert c_star(10, "4.5") == Fraction(29, 10)
    assert c_star(3, 2) == Fraction(4, 3)
    for K in (2, 5, 9):
        assert c_star(K, 1) == 1


def test_curve_for_fractional_storage():
    curve = build_curve(10, "4.5")
    assert [(p.c, p.L) for p in curve.points] == [
        (1, Fraction(11, 20)),
        (Fraction(31, 20), Fraction(11, 40)),
        (Fraction(21, 10), Fraction(11, 60)),
        (Fraction(53, 20), Fraction(11, 80)),
        (Fraction(29, 10), Fraction(1, 8)),
    ]
    assert curve.points[-1].g == Fraction(49, 11)
    assert list(curve_rows(curve))[-1][0] == Fraction(9, 2)


def test_curve_for_integer_storage():
    curve = build_curve(3, 2)
    assert [(p.c, p.L) for p in curve.points] == [
        (1, Fraction(1, 3)),
        (Fraction(4, 3), Fraction(1, 6)),
    ]
    assert list(curve_rows(curve))[-1][0] == 2


def test_curve_single_point():
    curve = build_curve(6, 1)
    assert [(p.c, p.L) for p in curve.points] == [(1, Fraction(5, 6))]
    assert list(curve_rows(curve))[-1][0] == 1


def test_curve_monotone_and_convex():
    for K in range(2, 11):
        for num in range(4, 4 * K, 3):
            r = Fraction(num, 4)
            if not 1 <= r < K:
                continue
            curve = build_curve(K, r)
            pts = curve.points
            assert all(a.c < b.c and a.L >= b.L for a, b in zip(pts, pts[1:]))
            for a, b, c in zip(pts, pts[1:], pts[2:]):
                chord = a.L + (c.L - a.L) * (b.c - a.c) / (c.c - a.c)
                assert b.L <= chord


def test_implied_g_inverts_basic_computation():
    for K in range(2, 9):
        for num in range(4, 4 * K):
            r = Fraction(num, 4)
            for g in (1, Fraction(3, 2), 2, r):
                c = basic_computation(K, r, g)
                terms = implied_g_terms(K, r.numerator, r.denominator, c.numerator, c.denominator)
                assert Fraction(*terms) == g


def test_curve_points_strictly_convex():
    # the points need no envelope pass: each interior point lies strictly
    # below the chord of its neighbours
    for K in range(2, 13):
        for num in range(20, 20 * K):
            pts = build_curve(K, Fraction(num, 20)).points
            for a, b, c in zip(pts, pts[1:], pts[2:]):
                assert (b.L - a.L) * (c.c - a.c) < (c.L - a.L) * (b.c - a.c), (K, num, b)


def test_curve_keeps_every_corner_near_K():
    # with storage close to K the last integer corner sits nearest the
    # saturation point; at the reachable saturation load (the chord of the
    # r = 8 and r = 9 points, (1/40 + 1/90) / 2) it stays below the chord
    # into that point, so the envelope keeps every corner
    curve = build_curve(10, "8.5")
    gs = [p.g for p in curve.points]
    assert gs == [Fraction(g) for g in range(1, 9)] + [Fraction(25, 3)]
    assert gs[-1] == g_r(10, "8.5")
    assert (curve.points[-1].c, curve.points[-1].L) == (Fraction(21, 10), Fraction(13, 720))


def test_saturation_supersedes_last_corner_when_ceil_hits_K():
    # ceil(r) = K makes the saturation point coincide with the last corner:
    # half of (r = 2, g = 2) mixed with half of r = 3 = K, which needs no
    # shuffle, lands on the g = 2 corner itself
    curve = build_curve(3, "2.5")
    assert [(p.c, p.L) for p in curve.points] == [
        (1, Fraction(1, 6)),
        (Fraction(7, 6), Fraction(1, 12)),
    ]
    assert curve.points[-1].g == g_r(3, "2.5") == 2


def test_g_equals_r_reduction_for_integer_storage():
    for K in range(3, 9):
        for r in range(1, K):
            assert corner_load(K, r, r).L == lstar_formula(K, r)
            assert c_star(K, r) == corner_load(K, r, r).c


def test_query_load_examples():
    curve = build_curve(10, "4.5")
    assert query_load(curve, "3.5") == Fraction(1, 8)
    assert query_load(curve, 1) == Fraction(11, 20)
    small = build_curve(3, 2)
    assert query_load(small, Fraction(7, 6)) == Fraction(1, 4)
    with pytest.raises(InvalidParameterError):
        query_load(curve, Fraction(1, 2))
    with pytest.raises(InvalidParameterError):
        query_load(curve, 5)


def test_query_load_monotone_in_budget_and_storage():
    K = 10
    grid = [1 + Fraction(i, 8) for i in range(0, 25)]
    prev_curve = None
    for r in (Fraction(7, 2), 4, Fraction(9, 2)):
        curve = build_curve(K, r)
        loads = [query_load(curve, c) for c in grid if c <= r]
        assert all(a >= b for a, b in zip(loads, loads[1:]))
        if prev_curve is not None:
            for c in grid:
                if c <= prev_curve.r:
                    assert query_load(curve, c) <= query_load(prev_curve, c)
        prev_curve = curve


def test_flat_region_identity():
    # beyond saturation the curve sits at the optimal full-computation load,
    # the integer-point chord for fractional storage
    curve = build_curve(10, "4.5")
    for c in ("2.9", 3, "3.7", "4.5"):
        assert query_load(curve, c) == optimal_load_cdc(10, "4.5")
    integer_curve = build_curve(6, 3)
    for c in (Fraction(5, 2), 3):
        assert query_load(integer_curve, c) == optimal_load_cdc(6, 3)


def _plane(K, g, r, c):
    """P_g(r, c) = (2/(g+1))(1 - r/K) - (c - 1)/(g(g+1)): the plane through
    the basic points (r', g') with g' in {g, g + 1}. It is affine in (r, c),
    so every file-group mixture of basic points lies on or above it."""
    return Fraction(2, g + 1) * (1 - Fraction(r, K)) - (c - 1) / (g * (g + 1))


def test_every_basic_point_lies_on_or_above_every_plane():
    # with u = 1 - r/K, L - P_h(r, c) = u(h - g)(h - g + 1)/(h g (h + 1)) for
    # the basic point (r, g): zero on lines h and h + 1 and at r = K, and
    # otherwise positive, as a product of two consecutive nonzero integers
    checks = 0
    for K in range(2, 25):
        for r in range(1, K + 1):
            for g in range(1, r + 1):
                c, L = basic_computation(K, r, g), basic_communication(K, r, g)
                for h in range(1, K + 1):
                    gap = L - _plane(K, h, r, c)
                    assert gap >= 0, (K, r, g, h)
                    assert (gap == 0) == (g in (h, h + 1) or r == K), (K, r, g, h)
                    checks += 1
    assert checks == 47449


def test_query_load_is_the_plane_of_the_implied_g_or_the_chord():
    # on the benchmark's planning grid (K 3-16, r on the 1/4 grid below K,
    # 20 evenly spaced c in [1, r]) the curve's load is the higher of P_g at
    # g = floor(implied g) and the converse chord: both bound every mixture
    # of basic schemes, so no mixture does better
    targets = 0
    for K in range(3, 17):
        for q in range(4, 4 * K):
            r = Fraction(q, 4)
            curve, chord = build_curve(K, r), optimal_load_cdc(K, r)
            for i in range(20):
                c = 1 + (r - 1) * Fraction(i, 19)
                g = math.floor(implied_g(K, r, c))
                assert query_load(curve, c) == max(_plane(K, g, r, c), chord), (K, r, c)
                targets += 1
    assert targets == 9520


def test_every_plan_group_lies_on_its_targets_face():
    # on the plan golden grid (K 3-10, r on the 1/4 grid below K, 20 evenly
    # spaced c in [1, r]) every group of the plan at minimal_files sits where
    # the certificate is tight: on P_g at g = floor(implied g), or on the
    # converse chord once the plan is clamped to c_star
    groups = 0
    for K in range(3, 11):
        for q in range(4, 4 * K):
            r = Fraction(q, 4)
            for i in range(20):
                c = 1 + (r - 1) * Fraction(i, 19)
                plan = plan_for_target(K, minimal_files(K, r, c), r, c)
                g = math.floor(implied_g(K, r, c))
                for sp in plan.groups:
                    L = basic_communication(K, sp.r, sp.g)
                    if plan.route == "clamp":
                        face = optimal_load_cdc(K, sp.r)
                    else:
                        face = _plane(K, g, sp.r, basic_computation(K, sp.r, sp.g))
                    assert L == face, (K, r, c, plan.route, sp)
                    groups += 1
    assert groups == 7898


def _det(a, b, c):
    """Determinant of the 3x3 matrix with columns a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _mixture_optimum(K, r, c):
    """The least load over file-group mixtures of basic points (r', g'),
    1 <= g' <= r' <= K, with weights w >= 0 summing to 1, storage sum(w r')
    = r and computation sum(w c') <= c, by brute force: a slack column makes
    the budget an equality, and each basis of 3 columns (at most 3 points)
    is solved exactly by Cramer's rule; the optimum is a feasible basis."""
    columns = [
        ((1, r_, basic_computation(K, r_, g_)), basic_communication(K, r_, g_))
        for r_ in range(1, K + 1)
        for g_ in range(1, r_ + 1)
    ]
    columns.append(((0, 0, 1), Fraction(0)))  # the unspent computation budget
    rhs = (1, r, c)
    best = None
    for basis in itertools.combinations(columns, 3):
        cols = [col for col, _ in basis]
        d = _det(*cols)
        if d == 0:
            continue
        weights = [
            _det(*(rhs if m == n else col for m, col in enumerate(cols))) / d for n in range(3)
        ]
        if min(weights) >= 0:
            load = sum(w * L for w, (_, L) in zip(weights, basis))
            best = load if best is None else min(best, load)
    return best


def test_query_load_is_the_least_load_of_any_basic_mixture():
    # K in {3, 4}, r on the 1/4 grid below K, 9 evenly spaced c in [1, r]
    targets = 0
    for K in (3, 4):
        for q in range(4, 4 * K):
            r = Fraction(q, 4)
            curve = build_curve(K, r)
            for i in range(9):
                c = 1 + (r - 1) * Fraction(i, 8)
                assert _mixture_optimum(K, r, c) == query_load(curve, c), (K, r, c)
                targets += 1
    assert targets == 180


def test_curve_rows_kinds_and_resolution():
    plain = list(curve_rows(build_curve(10, "4.5")))
    assert [kind for _, _, kind in plain] == ["corner"] * 5 + ["flat"]
    assert plain[-1][0] == Fraction(9, 2)

    sampled = list(curve_rows(build_curve(10, "4.5"), 3))
    kinds = [kind for _, _, kind in sampled]
    assert kinds.count("corner") == 5
    assert kinds.count("chord") == 4 * 3
    assert kinds.count("flat") == 3 + 1
    cs = [c for c, _, _ in sampled]
    assert cs == sorted(cs)
    for c, L, _ in sampled:
        assert L == query_load(build_curve(10, "4.5"), c)

    single = list(curve_rows(build_curve(6, 1)))
    assert single == [(Fraction(1), Fraction(5, 6), "corner")]
    with pytest.raises(InvalidParameterError, match="resolution must be non-negative"):
        curve_rows(build_curve(10, "4.5"), -1)


def test_curve_rows_cost_does_not_grow_with_the_point_count():
    # 500 segments of 100 samples: each sample is read off its own segment,
    # not found again by scanning the curve from its first point
    curve = build_curve(1000, 500)
    start = time.perf_counter()
    rows = list(curve_rows(curve, 100))
    assert time.perf_counter() - start < 5
    assert len(rows) == 500 * 101 + 1
