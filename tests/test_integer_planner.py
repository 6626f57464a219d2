"""The integer planner in ``d3c.analytics`` and ``d3c.composer`` plans every
target exactly as the Fraction planner it replaced, and its curve and loads
equal the Fraction envelope it replaced (both kept in ``fraction_planner``),
also at storage and computation denominators that the plan golden and the
benchmark grid (quarters only) never reach."""

from fractions import Fraction

import fraction_planner
import pytest
from fraction_planner import _route as reference_route
from fraction_planner import reference_plan
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d3c.analytics import build_curve, query_load
from d3c.composer import minimal_files, plan_for_target
from d3c.errors import DivisibilityError, InvalidParameterError


def grid_targets():
    """The benchmark's plan_grid blocks (K, r, [c...]) in a fixed order: K =
    3..16, r = 1..K - 1/4 in steps of 1/4, and 20 evenly spaced c in [1, r]."""
    for K in range(3, 17):
        for q in range(4, 4 * K):
            r = Fraction(q, 4)
            yield K, r, [1 + (r - 1) * Fraction(i, 19) for i in range(20)]


@st.composite
def targets(draw):
    """K in [3, 24], r = a/b with b <= 12 and 1 <= r < K, and
    c = 1 + (r - 1) i/j with 0 <= i <= j <= 30."""
    K = draw(st.integers(3, 24))
    b = draw(st.integers(1, 12))
    r = Fraction(draw(st.integers(b, K * b - 1)), b)
    j = draw(st.integers(1, 30))
    c = 1 + (r - 1) * Fraction(draw(st.integers(0, j)), j)
    return K, r, c


@settings(max_examples=400, deadline=None, database=None)
@given(targets())
@example((10, Fraction(9, 2), Fraction(9, 5)))  # e2, the benchmark's composite target
@example((3, Fraction(9, 4), Fraction(9, 8)))  # e2, the run golden's
@example((10, Fraction(9, 2), Fraction(4)))  # clamp at fractional g_r
@example((5, Fraction(9, 2), Fraction(4)))  # clamp at integer g_r (ceil(r) = K)
@example((10, Fraction(9, 2), Fraction(28, 10)))  # e3
@example((7, Fraction(3), Fraction(13, 7)))  # corner
def test_integer_planner_equals_the_fraction_planner(target):
    K, r, c = target
    route, groups, need, loads = reference_plan(K, r, c)
    assert minimal_files(K, r, c) == need
    plan = plan_for_target(K, need, r, c)
    assert plan.route == route
    assert [(sp.fraction, sp.r, sp.g) for sp in plan.groups] == groups
    assert (plan.predicted_r, plan.predicted_c, plan.predicted_L) == loads
    if need > 1:
        with pytest.raises(DivisibilityError) as refused:
            plan_for_target(K, need - 1, r, c)
        assert refused.value.min_files == need
    curve = build_curve(K, r)
    assert curve == fraction_planner.build_curve(K, r)
    assert query_load(curve, c) == fraction_planner.query_load(curve, c) == plan.predicted_L


def test_curve_and_loads_equal_the_fraction_envelope_on_the_benchmark_grid():
    targets = 0
    for K, r, cs in grid_targets():
        curve = build_curve(K, r)
        assert curve == fraction_planner.build_curve(K, r), (K, r)
        for c in cs:
            assert query_load(curve, c) == fraction_planner.query_load(curve, c), (K, r, c)
            targets += 1
    assert targets == 9520


def test_one_pass_over_the_benchmark_grid_builds_few_fractions(monkeypatch):
    """The benchmark's plan_grid calls per target, counted in Fractions built
    rather than timed: 55,743 on CPython 3.11, where per-target Fraction
    arithmetic in the curve, query or plan built 101,168."""
    blocks = list(grid_targets())
    built = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for K, r, cs in blocks:
        curve = build_curve(K, r)
        for c in cs:
            query_load(curve, c)
            plan_for_target(K, minimal_files(K, r, c), r, c)
    monkeypatch.undo()
    assert 0 < built <= 57_000


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(2, 24),
    st.fractions(min_value=-2, max_value=30, max_denominator=12),
    st.fractions(min_value=-2, max_value=30, max_denominator=12),
)
@example(10, Fraction(9, 2), Fraction(1, 2))  # c below 1
@example(10, Fraction(9, 2), Fraction(5))  # c above r
@example(10, Fraction(10), Fraction(3))  # r = K
@example(10, Fraction(21, 2), Fraction(3))  # r above K
def test_out_of_range_targets_are_refused_alike(K, r, c):
    try:
        reference_route(K, r, c)
    except InvalidParameterError as err:
        want = str(err)
    else:
        return  # in range: the test above compares the plans
    for plan in (lambda: minimal_files(K, r, c), lambda: plan_for_target(K, 1, r, c)):
        with pytest.raises(InvalidParameterError) as refused:
            plan()
        assert str(refused.value) == want
