"""Acceptance suite: the artifact's exit criteria, one line printed each.

Expected values are re-derived inside each test with exact rational
arithmetic (or looked up from frozen hand-checked constants), independently
of the library code paths they verify. Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time
from fractions import Fraction

from d3c.analytics import build_curve, query_load
from d3c.cli import main as cli_main
from d3c.combinatorics import binomial
from d3c.composer import minimal_files, plan_for_target
from d3c.engine import default_suite, execute, generate_corpus
from d3c.scheme import build_basic_scheme, build_cdc_scheme, make_params


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def _run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cli_main([*argv, "--out", str(out)])
    return code, out.read_text()


def test_golden_three_node_example():
    """Coded and baseline runs at K=3, N=6, r=2 hit (4/3, 1/6) and (2, 1/6)."""
    started = time.perf_counter()
    coded = execute(
        build_basic_scheme(make_params(3, 6, 2, 2, T=8)),
        generate_corpus(6, 64, 2026),
        default_suite(8),
    )
    baseline = execute(
        build_cdc_scheme(3, 6, 2, T=8),
        generate_corpus(6, 64, 2026),
        default_suite(8),
    )
    elapsed = time.perf_counter() - started
    got = [
        (m.storage_space, m.computation_load, m.communication_load)
        for m in (coded.measured, baseline.measured)
    ]
    want = [
        (Fraction(2), Fraction(4, 3), Fraction(1, 6)),
        (Fraction(2), Fraction(2), Fraction(1, 6)),
    ]
    ok = (
        got == want
        and coded.verification_passed
        and baseline.verification_passed
        and elapsed < 1.0
    )
    _report("golden three-node example", ok, f"{elapsed:.3f}s")
    assert got == want
    assert coded.verification_passed and baseline.verification_passed
    assert elapsed < 1.0


def _sweep_tuples(max_K):
    for K in range(2, max_K + 1):
        for r in range(1, K):
            for g in range(1, r + 1):
                yield K, r, g


def test_exact_load_identities_sweep():
    """Measured loads equal the closed forms exactly for every tuple up to K=6."""
    started = time.perf_counter()
    checked = 0
    for K, r, g in _sweep_tuples(6):
        N = binomial(K, r) * binomial(r, g)
        T = 4 * g
        scheme = build_basic_scheme(make_params(K, N, r, g, F=16, T=T))
        report = execute(scheme, generate_corpus(N, 16, 2026), default_suite(T))
        gap = Fraction(K - r, K)
        c = report.measured.computation_load
        assert c == Fraction(r, K) + gap * g, (K, r, g)
        assert report.measured.communication_load == gap * gap / (c - Fraction(r, K)), (K, r, g)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _report("exact load identities sweep", ok, f"{checked} tuples in {elapsed:.2f}s")
    assert ok


def test_decodability_everywhere():
    """Every node's reduce output matches the centralized oracle, bit for bit."""
    failures = []
    for K, r, g in _sweep_tuples(6):
        N = binomial(K, r) * binomial(r, g)
        T = 4 * g
        scheme = build_basic_scheme(make_params(K, N, r, g, F=16, T=T))
        report = execute(scheme, generate_corpus(N, 16, 77), default_suite(T))
        if not report.verification_passed:
            failures.append((K, r, g, 77))
    scheme = build_basic_scheme(make_params(5, 30, 3, 2, F=16, T=8))
    for seed in range(100):
        report = execute(scheme, generate_corpus(30, 16, seed), default_suite(8))
        if not report.verification_passed:
            failures.append((5, 3, 2, seed))
    _report("decodability", not failures, "sweep + 100 seeds at (5, 3, 2)")
    assert not failures, failures


def test_tradeoff_curve_emission(tmp_path):
    """The emitted K=10, r=4.5 curve matches an independent evaluation."""
    code, text = _run_cli(tmp_path, "tradeoff", "--K", "10", "--r", "4.5")
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]

    # independent evaluation of the closed forms
    K, r = 10, Fraction(9, 2)
    gap = 1 - r / K
    expected = [(r / K + gap * g, gap / g, "corner") for g in range(1, 5)]
    g_sat = 4 + (r - 4) * (K - 5) / (K - r)
    c_sat = r / K + gap * g_sat
    # the saturation load is the chord between the integer points r = 4, 5
    alpha = r - 4
    L_sat = (1 - alpha) * Fraction(1, 4) * (1 - Fraction(4, K)) + alpha * Fraction(1, 5) * (
        1 - Fraction(5, K)
    )
    expected.append((c_sat, L_sat, "corner"))
    expected.append((r, L_sat, "flat"))
    assert [float(c) for c, _, _ in expected[:5]] == [1.0, 1.55, 2.1, 2.65, 2.9]
    assert L_sat == Fraction(1, 8)

    ok = code == 0 and len(rows) == len(expected)
    deviation = 0.0
    if ok:
        for (c_text, L_text, kind), (c_want, L_want, kind_want) in zip(rows, expected):
            deviation = max(
                deviation,
                abs(float(c_text) - float(c_want)),
                abs(float(L_text) - float(L_want)),
            )
            ok = ok and kind == kind_want
    ok = ok and deviation < 1e-12

    # the library's exact values agree with the independent rationals
    curve = build_curve(10, "4.5")
    exact_ok = [(p.c, p.L) for p in curve.points] == [(c, L) for c, L, _ in expected[:5]]
    ok = ok and exact_ok

    _report("tradeoff curve emission (K=10, r=4.5)", ok, f"max deviation {deviation:.2e}")
    assert code == 0
    assert len(rows) == len(expected)
    assert deviation < 1e-12
    assert exact_ok


def test_saturation_computation_sweep(tmp_path):
    """Saturation budgets stay below c = r and fall off monotonically."""
    code, text = _run_cli(tmp_path, "tradeoff", "--K", "10", "--cstar-sweep")
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert code == 0
    pairs = [(Fraction(c_r), Fraction(cs)) for c_r, cs, _ in rows]
    assert len(pairs) == 20 * 9

    below = all(cs <= r for r, cs in pairs)
    equality_points = [r for r, cs in pairs if cs == r]
    peak = max(cs for _, cs in pairs)
    peak_at = next(i for i, (_, cs) in enumerate(pairs) if cs == peak)
    tail = [cs for _, cs in pairs[peak_at:]]
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))

    ok = below and equality_points == [Fraction(1)] and monotone
    _report(
        "saturation computation sweep (K=10)",
        ok,
        f"peak {float(peak):.3f} at r={float(pairs[peak_at][0]):.2f}",
    )
    assert below
    assert equality_points == [Fraction(1)]
    assert monotone


def test_composite_exactness():
    """Executed composite plans reproduce the curve's load at four targets.

    The two pre-saturation targets are reproduced exactly. The two targets
    at and beyond the saturation budget measure the curve's flat value,
    which for fractional storage is the integer-point chord (1/8 here), the
    optimum by the converse of Li, Maddah-Ali, Yu and Avestimehr
    (arXiv:1604.07086); the direct formula (11/90) is a lower bound no plan
    reaches and is not on the curve.
    """
    started = time.perf_counter()
    K, r = 10, Fraction(9, 2)
    curve = build_curve(K, r)
    mismatches = []
    for c in (Fraction(1), Fraction(9, 5), Fraction(29, 10), Fraction(7, 2)):
        N = minimal_files(K, r, c)
        plan = plan_for_target(K, N, r, c)
        corpus = generate_corpus(N, 8, 2026)
        report = execute(plan, corpus, default_suite(24))
        want = query_load(curve, c)
        got = report.measured.communication_load
        if got != want or not report.verification_passed:
            mismatches.append(
                f"c={c}: measured L={got} vs curve {want}, "
                f"verified={report.verification_passed}, route={plan.route}"
            )
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 120.0
    _report(
        "composite exactness (K=10, r=4.5)",
        ok,
        "; ".join(mismatches) if mismatches else f"{elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert not mismatches, mismatches


def test_information_flow_audit():
    """No node touches a file outside its placement or an undelivered signal."""
    report = execute(
        build_basic_scheme(make_params(3, 6, 2, 2, T=8)),
        generate_corpus(6, 64, 2026),
        default_suite(8),
    )
    audit = report.audit
    ok = (
        audit["violations"] == []
        and audit["file_reads"] > 0
        and audit["signal_reads"] > 0
        and report.verification_passed
    )
    _report(
        "information-flow audit",
        ok,
        f"{audit['file_reads']} file reads, {audit['signal_reads']} signal reads, "
        f"{len(audit['violations'])} violations",
    )
    assert ok


def test_flat_region_identity_is_analytic():
    """Past the saturation budget the curve equals the integer-point chord.

    By the converse of Li, Maddah-Ali, Yu and Avestimehr (arXiv:1604.07086)
    the optimal load at fractional storage is the lower convex envelope of
    the integer-storage points, here the chord between r = 4 and r = 5;
    computing fewer intermediate values cannot lower it.
    """
    K, r = 10, Fraction(9, 2)
    curve = build_curve(K, r)
    alpha = r - 4
    flat = (1 - alpha) * Fraction(1, 4) * (1 - Fraction(4, K)) + alpha * Fraction(1, 5) * (
        1 - Fraction(5, K)
    )
    cs = curve.c_star
    grid = [cs + (r - cs) * Fraction(i, 8) for i in range(9)]
    ok = all(query_load(curve, c) == flat for c in grid)
    _report("flat-region identity (analytic)", ok, f"L = {flat} on [{cs}, {r}]")
    assert ok
