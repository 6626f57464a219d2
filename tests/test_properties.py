"""Properties of executed plans over generated (K, r, c) targets.

Every target on the grid below is planned at its smallest admissible corpus
and executed; the measured loads must equal the curve and the closed-form
prediction exactly, whatever route the planner takes.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from d3c.analytics import build_curve, query_load
from d3c.composer import minimal_files, plan_for_target, safe_iva_bits
from d3c.engine import default_suite, execute, generate_corpus

MAX_FILES = 3000  # bounds the run time of one example


@st.composite
def grid_targets(draw):
    """K <= 6, r on the 1/4 grid in [1, K), c on an 11-point grid in [1, r]."""
    K = draw(st.integers(2, 6))
    r = Fraction(draw(st.integers(4, 4 * K - 1)), 4)
    c = 1 + (r - 1) * Fraction(draw(st.integers(0, 10)), 10)
    return K, r, c


small_targets = grid_targets().filter(lambda t: minimal_files(*t) <= MAX_FILES)


@settings(max_examples=150, deadline=None, database=None)
@given(small_targets)
@example((4, Fraction(2), Fraction(1))).via("corner")
@example((2, Fraction(3, 2), Fraction(1))).via("e1")
@example((3, Fraction(2), Fraction(6, 5))).via("e2")
@example((4, Fraction(9, 4), Fraction(3, 2))).via("e3")
@example((3, Fraction(2), Fraction(8, 5))).via("clamp")
def test_executed_plan_meets_curve_and_prediction(target):
    K, r, c = target
    N = minimal_files(K, r, c)
    plan = plan_for_target(K, N, r, c)
    report = execute(plan, generate_corpus(N, 8, 0), default_suite(safe_iva_bits(plan)))
    measured, predicted = report.measured, report.predicted
    assert (
        measured.communication_load
        == query_load(build_curve(K, r), c)
        == predicted["communication_load"]
    ), plan.route
    assert measured.computation_load == predicted["computation_load"]
    assert measured.storage_space == predicted["storage_space"] == r
    assert report.verification_passed
    assert predicted == {
        "storage_space": plan.predicted_r,
        "computation_load": plan.predicted_c,
        "communication_load": plan.predicted_L,
    }, plan.route
