"""Fractional-target planning: the chord rule, routing, and minimal corpus
sizes."""

import math
from fractions import Fraction

import pytest

from d3c.analytics import build_curve, c_star, g_r, query_load
from d3c.composer import (
    basic_communication,
    basic_computation,
    group_divisor,
    minimal_files,
    plan_for_target,
    safe_iva_bits,
)
from d3c.errors import DivisibilityError, InvalidParameterError


def groups_as_tuples(groups):
    return [(sp.fraction, sp.r, sp.g) for sp in groups]


def plan_at(K, r, c):
    """The plan for (r, c) bound to its smallest admissible corpus."""
    return plan_for_target(K, minimal_files(K, r, c), r, c)


def plan_at_g(K, r, g):
    """The plan whose computation budget implies coding parameter g."""
    return plan_at(K, r, basic_computation(K, Fraction(r), Fraction(g)))


def weight(plan, keep):
    """Total fraction of the plan's groups for which keep(group) holds."""
    return sum(sp.fraction for sp in plan.groups if keep(sp))


def test_storage_split_examples():
    plan = plan_at_g(10, Fraction(9, 2), 2)
    assert plan.route == "e1"
    assert weight(plan, lambda sp: sp.r == 5) == Fraction(1, 2)  # alpha
    assert groups_as_tuples(plan.groups) == [
        (Fraction(1, 2), 4, 2),
        (Fraction(1, 2), 5, 2),
    ]

    plan = plan_at_g(10, 4, 2)
    assert plan.route == "corner"
    assert groups_as_tuples(plan.groups) == [(Fraction(1), 4, 2)]

    plan = plan_at_g(3, Fraction(3, 2), 1)
    assert plan.route == "e1"
    assert groups_as_tuples(plan.groups) == [
        (Fraction(1, 2), 1, 1),
        (Fraction(1, 2), 2, 1),
    ]


def test_storage_split_weighted_identities():
    for r in (Fraction(9, 2), Fraction(17, 6), Fraction(2)):
        for g in range(1, math.floor(r) + 1):
            plan = plan_at_g(10, r, g)
            assert plan.route in {"corner", "e1"}
            assert {sp.g for sp in plan.groups} == {g}
            assert sum(sp.fraction for sp in plan.groups) == 1
            assert sum(sp.fraction * sp.r for sp in plan.groups) == r
            c = sum(sp.fraction * basic_computation(10, sp.r, sp.g) for sp in plan.groups)
            assert c == plan.predicted_c == Fraction(r, 10) + (1 - Fraction(r, 10)) * g
            L = sum(sp.fraction * basic_communication(10, sp.r, sp.g) for sp in plan.groups)
            assert L == plan.predicted_L == (1 - Fraction(r, 10)) / g


def test_coding_split_examples():
    plan = plan_at_g(10, Fraction(9, 2), Fraction(3, 2))
    assert plan.route == "e2"
    assert weight(plan, lambda sp: sp.g == 2) == Fraction(1, 2)  # beta
    assert groups_as_tuples(plan.groups) == [
        (Fraction(1, 4), 4, 1),
        (Fraction(1, 4), 5, 1),
        (Fraction(1, 4), 4, 2),
        (Fraction(1, 4), 5, 2),
    ]

    plan = plan_at_g(10, Fraction(9, 2), 2)
    assert plan.route == "e1"
    assert len(plan.groups) == 2

    plan = plan_at_g(4, 3, Fraction(9, 4))
    assert plan.route == "e2"
    assert weight(plan, lambda sp: sp.g == 3) == Fraction(1, 4)  # beta
    assert groups_as_tuples(plan.groups) == [
        (Fraction(3, 4), 3, 2),
        (Fraction(1, 4), 3, 3),
    ]


def test_saturation_split_endpoint():
    c = c_star(10, Fraction(9, 2))
    assert c == Fraction(29, 10)
    plan = plan_at(10, Fraction(9, 2), c)
    assert plan.route == "e3"
    assert weight(plan, lambda sp: (sp.r, sp.g) == (5, 5)) == Fraction(1, 2)  # theta
    assert groups_as_tuples(plan.groups) == [
        (Fraction(1, 2), 4, 4),
        (Fraction(1, 2), 5, 5),
    ]


def test_saturation_split_interior():
    r = Fraction(5, 2)
    c = Fraction(5, 8) + Fraction(3, 8) * Fraction(11, 5)  # implied g = 2.2
    plan = plan_at(4, r, c)
    assert plan.route == "e3"
    assert sum(sp.fraction * sp.r for sp in plan.groups) == r
    assert sum(sp.fraction * basic_computation(4, sp.r, sp.g) for sp in plan.groups) == c
    # the full group carries weight theta at (ceil(r), ceil(r))
    assert (Fraction(3, 10), 3, 3) in groups_as_tuples(plan.groups)


def test_route_labels_partition_the_domain():
    K = 10
    for r in (Fraction(3), Fraction(9, 2)):
        curve = build_curve(K, r)
        grid = [1 + (r - 1) * Fraction(i, 40) for i in range(41)]
        for c in grid:
            plan = plan_for_target(K, minimal_files(K, r, c), r, c)
            assert plan.route in {"corner", "e1", "e2", "e3", "clamp"}
            assert sum(sp.fraction for sp in plan.groups) == 1
            assert plan.predicted_r == r
            if plan.route == "clamp":
                assert plan.predicted_c <= c
            else:
                assert plan.predicted_c == c
            g_implied = (c - Fraction(r, K)) / (1 - Fraction(r, K))
            if plan.route == "corner":
                assert r.denominator == 1 and g_implied.denominator == 1
            elif plan.route == "e1":
                assert r.denominator > 1 and g_implied.denominator == 1
            elif plan.route == "e2":
                assert g_implied.denominator > 1 and g_implied < math.floor(r)
            elif plan.route == "e3":
                assert math.floor(r) < g_implied <= g_r(K, r)
            else:
                assert g_implied > g_r(K, r)


def test_predictions_match_curve_on_pre_saturation_routes():
    # every route agrees with the curve, the saturation (e3) and clamp routes
    # too; r = 19/2 covers ceil(r) = K
    K = 10
    for r in (Fraction(3), Fraction(9, 2), Fraction(19, 2)):
        curve = build_curve(K, r)
        grid = [1 + (r - 1) * Fraction(i, 40) for i in range(41)]
        for c in grid:
            plan = plan_for_target(K, minimal_files(K, r, c), r, c)
            assert plan.predicted_L == query_load(curve, c), (r, c, plan.route)


def test_unique_split_parameters_recoverable_from_plans():
    alpha = weight(plan_at_g(10, Fraction(9, 2), 3), lambda sp: sp.r == 5)
    assert alpha == Fraction(1, 2)

    beta = weight(plan_at_g(10, Fraction(9, 2), Fraction(5, 2)), lambda sp: sp.g == 3)
    assert beta == Fraction(1, 2)

    plan = plan_at(10, Fraction(9, 2), Fraction(14, 5))
    assert plan.route == "e3"
    theta = weight(plan, lambda sp: (sp.r, sp.g) == (5, 5))
    # theta solves the computation-budget equation
    c = sum(sp.fraction * basic_computation(10, sp.r, sp.g) for sp in plan.groups)
    assert c == Fraction(14, 5)
    assert c == Fraction(9, 20) + Fraction(11, 20) * (4 + theta * Fraction(5, Fraction(11, 2)))


def test_minimal_files_values():
    assert minimal_files(10, "4.5", 1) == 5040
    assert minimal_files(10, "4.5", "1.8") == 55440
    assert minimal_files(10, "4.5", "2.9") == 2520
    assert minimal_files(10, "4.5", "3.5") == 2520
    assert minimal_files(3, 2, "4/3") == 3


def test_minimal_files_is_admissible_and_tight():
    for r, c in ((Fraction(9, 2), Fraction(9, 5)), (Fraction(5, 2), Fraction(3, 2))):
        K = 10 if r > 3 else 4
        need = minimal_files(K, r, c)
        plan = plan_for_target(K, need, r, c)
        for sp in plan.groups:
            assert sp.file_count == sp.fraction * need
            assert sp.file_count % group_divisor(K, sp.r, sp.g) == 0
        with pytest.raises(DivisibilityError) as err:
            plan_for_target(K, need - 1, r, c)
        assert err.value.min_files == need


def test_plan_for_golden_example():
    plan = plan_for_target(3, 6, 2, "4/3")
    assert plan.route == "corner"
    assert groups_as_tuples(plan.groups) == [(Fraction(1), 2, 2)]
    assert plan.predicted_L == Fraction(1, 6)
    assert (plan.groups[0].first_file, plan.groups[0].file_count) == (1, 6)


def test_plan_groups_tile_the_corpus():
    plan = plan_for_target(10, 55440, "4.5", "1.8")
    next_file = 1
    for sp in sorted(plan.groups, key=lambda sp: sp.first_file):
        assert sp.first_file == next_file and sp.file_count > 0
        next_file += sp.file_count
    assert next_file == 55441


def test_clamp_region_keeps_saturation_computation():
    plan = plan_for_target(10, 2520, "4.5", "3.5")
    assert plan.route == "clamp"
    assert plan.predicted_c == Fraction(29, 10)
    assert plan.target_c == Fraction(7, 2)
    assert groups_as_tuples(plan.groups) == [
        (Fraction(1, 2), 4, 4),
        (Fraction(1, 2), 5, 5),
    ]


def test_clamp_for_integer_storage():
    plan = plan_for_target(4, 6, 2, "1.9")
    assert plan.route == "clamp"
    assert groups_as_tuples(plan.groups) == [(Fraction(1), 2, 2)]
    assert plan.predicted_c == Fraction(3, 2)


def test_clamp_when_ceil_reaches_K():
    plan = plan_for_target(3, 6, "2.5", "2.2")
    assert plan.route == "clamp"
    assert groups_as_tuples(plan.groups) == [
        (Fraction(1, 2), 2, 2),
        (Fraction(1, 2), 3, 2),
    ]


def test_plan_rejects_bad_targets():
    with pytest.raises(InvalidParameterError):
        plan_for_target(10, 5040, "4.5", Fraction(1, 2))  # c below 1
    with pytest.raises(InvalidParameterError):
        plan_for_target(10, 5040, "4.5", 5)  # c above r
    with pytest.raises(InvalidParameterError):
        plan_for_target(10, 5040, 10, 2)  # r not below K


def test_safe_iva_bits_meets_segment_divisibility():
    for r, c in ((Fraction(9, 2), Fraction(9, 5)), (Fraction(9, 2), Fraction(29, 10))):
        plan = plan_for_target(10, minimal_files(10, r, c), r, c)
        T = safe_iva_bits(plan)
        for sp in plan.groups:
            eta = sp.file_count // group_divisor(10, sp.r, sp.g)
            assert (eta * T) % sp.g == 0
