"""Command-line surface: flags, formats, file outputs, exit codes."""

import io
import itertools
import json
import math
import re
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from conftest import fault_signals_heard_by
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from d3c import composer
from d3c.cli import main
from d3c.errors import InvalidParameterError
from d3c.scheme import SchemeParams, build_cdc_scheme, make_params


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on the digits of an int converted to
    text, set for the test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_tradeoff_curve_csv(capsys):
    code, out, _ = run(capsys, "tradeoff", "--K", "3", "--r", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["c", "L", "segment_kind"]
    expected = [
        (1.0, float(Fraction(1, 3)), "corner"),
        (float(Fraction(4, 3)), float(Fraction(1, 6)), "corner"),
        (2.0, float(Fraction(1, 6)), "flat"),
    ]
    assert len(rows) == len(expected)
    for (c, L, kind), (ec, eL, ekind) in zip(rows, expected):
        assert abs(float(c) - ec) < 1e-11
        assert abs(float(L) - eL) < 1e-11
        assert kind == ekind


def test_tradeoff_resolution_adds_samples(capsys):
    code, out, _ = run(capsys, "tradeoff", "--K", "3", "--r", "2", "--resolution", "4")
    _, rows = parse_csv(out)
    kinds = [row[2] for row in rows]
    assert kinds.count("chord") == 4
    assert kinds.count("flat") == 5


def test_tradeoff_json(capsys):
    code, out, _ = run(capsys, "tradeoff", "--K", "10", "--r", "4.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["flat_load"] == "1/8"
    assert len(doc["points"]) == 5


def test_tradeoff_saturation_sweep(capsys):
    code, out, _ = run(capsys, "tradeoff", "--K", "4", "--cstar-sweep")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "c_star", "c_equals_r"]
    assert len(rows) == 60  # r = 1.00, 1.05, ..., 3.95
    for r, cs, line in rows:
        assert float(cs) <= float(r) + 1e-12
        assert line == r


def test_tradeoff_requires_r_or_sweep(capsys):
    code, _, err = run(capsys, "tradeoff", "--K", "4")
    assert code == 1
    assert "--r" in err


def test_tradeoff_rejects_bad_r(capsys):
    code, _, err = run(capsys, "tradeoff", "--K", "4", "--r", "4")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("tradeoff", "--K", "10", "--r", "1e5000"),
        ("simulate", "--K", "10", "--N", "10", "--r", "2", "--c", "1e-5000"),
        ("sweep", "--K", "10", "--r", "1e5000"),
        ("tradeoff", "--K", "10", "--r", "1e20000000"),
    ],
)
def test_a_rational_past_the_digit_bound_is_refused_at_once(capsys, digit_limit, argv):
    # the interpreter prints no int past 4300 digits, and would spend
    # seconds expanding 1e20000000
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "not a finite rational number of at most 4300 digits" in err


def test_simulate_golden(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "simulate", "--K", "3", "--N", "6", "--r", "2", "--c", "4/3",
        "--T", "8", "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["measured"]["storage_space"]["exact"] == "2"
    assert doc["measured"]["computation_load"]["exact"] == "4/3"
    assert doc["measured"]["communication_load"]["exact"] == "1/6"
    assert doc["verification"]["passed"] is True
    assert doc["audit"]["violations"] == []


def test_simulate_cdc(capsys):
    code, out, _ = run(
        capsys, "simulate", "--K", "3", "--N", "6", "--r", "2", "--cdc", "--T", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["measured"]["computation_load"]["exact"] == "2"
    assert doc["measured"]["communication_load"]["exact"] == "1/6"


def test_simulate_direct_g(capsys):
    code, out, _ = run(
        capsys, "simulate", "--K", "4", "--N", "24", "--r", "2", "--g", "1", "--T", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["measured"]["communication_load"]["exact"] == "1/2"


def test_simulate_flag_conflicts(capsys):
    code, _, err = run(capsys, "simulate", "--K", "3", "--N", "6", "--r", "2")
    assert code == 1 and "exactly one" in err
    code, _, err = run(
        capsys, "simulate", "--K", "3", "--N", "6", "--r", "2", "--c", "1", "--g", "1"
    )
    assert code == 1 and "exactly one" in err
    for command in ("simulate", "inspect"):
        code, _, err = run(capsys, command, "--K", "3", "--N", "6", "--r", "2", "--cdc", "--g", "2")
        assert code == 1 and "--cdc does not take --g" in err, command
    code, _, err = run(
        capsys, "simulate", "--K", "3", "--N", "6", "--r", "2", "--cdc", "--c", "3/2"
    )
    assert code == 1 and "the baseline always computes c = r" in err
    code, _, err = run(capsys, "simulate", "--K", "3", "--N", "6", "--r", "5/2", "--g", "1")
    assert code == 1 and "--g requires integer --r" in err
    code, _, err = run(capsys, "simulate", "--K", "3", "--N", "6", "--r", "5/2", "--cdc")
    assert code == 1 and "the baseline scheme needs integer --r" in err


def test_an_execution_failure_exits_three(capsys, monkeypatch):
    fault_signals_heard_by(monkeypatch, 3, lambda signal: None)  # node 3 hears nothing
    argv = ("simulate", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--T", "8")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("d3c: failure: decode failed at node 3: ")


def test_simulate_infeasible_exit(capsys, digit_limit):
    code, _, err = run(capsys, "simulate", "--K", "3", "--N", "5", "--r", "2", "--c", "4/3")
    assert code == 2
    assert "smallest admissible file count is 3" in err
    # in-bound texts whose smallest file count has 6006 digits, more than the
    # interpreter prints: it is named by the power of two at or below it
    r, c = "3." + "0" * 2000 + "1", "1." + "0" * 4000 + "1"
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--K", "10", "--N", "10", "--r", r, "--c", c)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("d3c: infeasible: ") and err.count("\n") == 1
    assert "smallest admissible file count is at least 2^" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "tradeoff")[0] == 1  # missing --K
    assert run(capsys, "tradeoff", "--K", "x")[0] == 1
    assert run(capsys)[0] == 1
    code, _, err = run(capsys, "compare", "--K", "3", "--N", "6", "--r", "2", "--g", "1,x")
    assert code == 1 and "not a comma-separated integer list" in err
    for mode in (("--c", "4/3"), ("--g", "1")):  # no files: a usage error on either path
        code, _, err = run(capsys, "simulate", "--K", "3", "--N", "0", "--r", "2", *mode)
        assert code == 1 and "file count must be positive, got 0" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--r", ("sweep", "--K", "4", "--r", "")),
        ("--r", ("sweep", "--K", "4", "--r", "2,,3")),
        ("--c", ("sweep", "--K", "4", "--r", "2", "--c", "", "--resolution", "3")),
        ("--g", ("compare", "--K", "3", "--N", "6", "--r", "2", "--g", ",1,", "--T", "8")),
        ("--g", ("compare", "--K", "3", "--N", "6", "--r", "2", "--g", "", "--cdc", "--T", "8")),
    ],
)
def test_an_empty_list_item_is_a_usage_error(capsys, flag, argv):
    """An empty item, and so an empty list, is refused, not dropped: dropped,
    these ran a header-only sweep, the --resolution grid and the baseline alone."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"error: argument {flag}: not a " in err


def test_compare_table(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--cdc", "--T", "8",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["name", "r", "c", "L", "predicted_c", "predicted_L", "verified"]
    assert [row[0] for row in rows] == ["d3c-r2-g2", "cdc-r2"]
    assert [row[6] for row in rows] == ["true", "true"]
    assert abs(float(rows[0][2]) - float(Fraction(4, 3))) < 1e-11
    assert float(rows[1][2]) == 2.0


def compare_json(capsys, *argv):
    """Exit code and {name: row} of a compare run, loads as exact rationals."""
    code, out, _ = run(capsys, "compare", *argv, "--format", "json")
    rows = json.loads(out)
    for row in rows:
        for key in ("r", "c", "L", "predicted_c", "predicted_L"):
            row[key] = Fraction(row[key])
    return code, {row["name"]: row for row in rows}


def test_compare_golden_table_in_exact_rationals(capsys):
    code, rows = compare_json(
        capsys, "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--cdc", "--T", "8"
    )
    assert code == 0
    coded, baseline = rows["d3c-r2-g2"], rows["cdc-r2"]
    assert (coded["c"], coded["L"]) == (Fraction(4, 3), Fraction(1, 6))
    assert (baseline["c"], baseline["L"]) == (2, Fraction(1, 6))
    for row in rows.values():
        assert row["verified"] is True
        assert (row["c"], row["L"]) == (row["predicted_c"], row["predicted_L"])


def test_compare_single_scheme_and_corner_pair(capsys):
    small = ("--K", "4", "--N", "24", "--r", "2", "--T", "8")
    code, only = compare_json(capsys, *small, "--g", "1")
    assert code == 0
    assert only["d3c-r2-g1"]["L"] == Fraction(1, 2)
    code, pair = compare_json(capsys, *small, "--g", "1,2")
    assert code == 0
    g1, g2 = pair["d3c-r2-g1"], pair["d3c-r2-g2"]
    assert g2["L"] == g1["L"] / 2
    assert g2["c"] - g1["c"] == Fraction(1, 2)


def test_compare_validates_every_scheme_before_the_corpus(capsys, monkeypatch):
    import d3c.engine

    def no_corpus(*args):
        raise AssertionError("corpus built before the schemes were checked")

    monkeypatch.setattr(d3c.engine, "generate_corpus", no_corpus)
    for argv, message in (
        (("--K", "4", "--N", "24", "--r", "2", "--g", "1,5"), "need 1 <= g <= r <= K, got g=5"),
        (("--K", "1", "--N", "24", "--r", "2", "--g", "1", "--cdc"), "need at least 2 nodes"),
    ):
        code, out, err = run(capsys, "compare", *argv)
        assert (code, out) == (1, ""), argv
        assert message in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--K", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["K", "r", "g", "N"]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        ("2", "1", "1"),
        ("3", "1", "1"),
        ("3", "2", "1"),
        ("3", "2", "2"),
    ]
    assert all(row[-1] == "true" for row in rows)


def test_sweep_row_count_and_flat_region(capsys):
    code, out, _ = run(
        capsys, "sweep", "--K", "10", "--r", "2,4.5,7", "--resolution", "20"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 60
    flat = [row for row in rows if row[0] == "4.5" and float(row[1]) >= 2.9]
    assert len({row[2] for row in flat}) == 1  # constant load past saturation


def test_sweep_with_execution(capsys):
    code, out, _ = run(
        capsys, "sweep", "--K", "4", "--r", "2.5", "--c", "1,5/4,3/2,2", "--execute",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4
    for row in rows:
        assert row[3] == row[2]
        assert row[4] == "true"


def test_sweep_execution_fails_on_load_gap(capsys, monkeypatch):
    import d3c.analytics

    real_query_load = d3c.analytics.query_load
    monkeypatch.setattr(
        d3c.analytics, "query_load", lambda curve, c: real_query_load(curve, c) + Fraction(1, 100)
    )
    code, out, _ = run(
        capsys, "sweep", "--K", "4", "--r", "2.5", "--c", "5/4", "--execute",
    )
    assert code == 3
    _, rows = parse_csv(out)
    assert rows[0][3] != rows[0][2]
    assert rows[0][4] == "true"  # decoding still verifies; only the load is off


def test_sweep_and_verify_fail_on_storage_or_computation_gap(capsys, monkeypatch):
    import d3c.engine

    real = d3c.engine._predicted_loads
    for load in ("storage_space", "computation_load"):

        def shifted(groups, N, load=load):
            predicted = real(groups, N)
            predicted[load] += Fraction(1, N)
            return predicted

        monkeypatch.setattr(d3c.engine, "_predicted_loads", shifted)
        code, out, _ = run(capsys, "sweep", "--K", "4", "--r", "2.5", "--c", "5/4", "--execute")
        assert code == 3, load
        _, rows = parse_csv(out)
        assert rows[0][3] == rows[0][2] and rows[0][4] == "true"  # L and decoding still match
        code, out, _ = run(capsys, "verify", "--K", "3")
        assert code == 3, load
        _, rows = parse_csv(out)
        assert all(row[6:] == ["true", "false"] for row in rows), load  # decode_ok, pass


def test_executed_sweep_over_budget_is_refused(capsys):
    # 1,113,600 files over 40 points at K = 6; it once ran for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--K", "6", "--r", "11/4,13/4", "--execute")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "6681600 (file, node) pairs" in err
    code, out, _ = run(capsys, "sweep", "--K", "6", "--r", "11/4,13/4")
    assert code == 0
    assert len(parse_csv(out)[1]) == 40


def test_sweep_budget_refuses_only_above_it(capsys, monkeypatch):
    import d3c.cli

    argv = ("sweep", "--K", "4", "--r", "2.5", "--c", "1,5/4", "--execute")
    size = 4 * sum(composer.minimal_files(4, Fraction(5, 2), c) for c in (1, Fraction(5, 4)))
    monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", size - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"needs {size} (file, node) pairs, over the budget of {size - 1}" in err
    monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", size)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(parse_csv(out)[1]) == 2


def test_requests_over_budget_are_refused_from_counts(capsys, digit_limit):
    # verify --K 16 would build 996,904,236 (file, node) pairs over its
    # schemes and 10^7 files at K = 10 are 10^8 pairs; K counts as at least
    # 1, so a K = 0 request with a huge N is refused from counts too
    pairs = "(file, node) pairs"
    # within the pair budget, each of these digests far past its budget: a
    # wide T that every output block re-reads (22 s at 2^20 bits), a wide B
    # of 195,313 blocks per output, verify --K 10 (13 s), and 4,967 nodes
    # that each map all 4,967 values of one file at the default T = 39,736
    small = ("--K", "3", "--N", "6", "--r", "2")
    blocks = "512-bit digest blocks"
    wide = "8" + "0" * 3000
    wide_count = f"at least 2^{_digest_blocks(3, 6, 2, int(wide)).bit_length() - 1}"
    for argv, count, unit in (
        (("verify", "--K", "16"), 996904236, pairs),
        (("simulate", "--K", "10", "--N", "10000000", "--r", "2", "--g", "1"), 10**8, pairs),
        (("compare", "--K", "0", "--N", str(2**21), "--r", "1", "--g", "1"), 2**21, pairs),
        (("simulate", *small, "--g", "2", "--T", str(2**20)), 151130112, blocks),
        (("simulate", *small, "--g", "2", "--T", str(2**23)), 9664757760, blocks),
        (("simulate", *small, "--c", "4/3", "--B", "100000000"), 2343810, blocks),
        (("verify", "--K", "10"), 6083408, blocks),
        (("simulate", "--K", "4967", "--N", "1", "--r", "4967", "--g", "4967"), 1985945676, blocks),
        # counts with more digits than the interpreter converts to text print
        # as the power of two at or below them: a T and a B of 3,001 digits
        (("simulate", *small, "--g", "2", "--T", wide, "--B", wide), wide_count, blocks),
        (("compare", *small, "--g", "2", "--T", wide, "--B", wide), wide_count, blocks),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (1, ""), argv
        assert f"needs {count} {unit}" in err, argv


def test_size_budget_refuses_only_above_it(capsys, monkeypatch):
    import d3c.cli

    small = ("--K", "3", "--N", "6", "--r", "2", "--T", "8")
    verify_pairs = sum(
        math.comb(K, r) * math.comb(r, g) * K
        for K in (2, 3)
        for r in range(1, K)
        for g in range(1, r + 1)
    )
    for argv, pairs in (
        (("verify", "--K", "3"), verify_pairs),
        (("simulate", *small, "--g", "2"), 18),
        (("simulate", *small, "--c", "4/3"), 18),
        (("compare", *small, "--g", "1,2", "--cdc"), 3 * 18),
        (("inspect", *small, "--cdc"), 18),
    ):
        monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", pairs - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"needs {pairs} (file, node) pairs, over the budget of {pairs - 1}" in err
        monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", pairs)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv


def _digest_blocks(K, N, r, T, B=None):
    """512-bit digest blocks of one run as the README counts them: r + 1
    values per (file, node) pair, then 2K outputs, each output block also
    reading the N values of 4 + ceil(T/8) bytes in 64-byte blocks."""
    B = T if B is None else B
    record = N * (4 + -(-T // 8))
    return (math.ceil(r) + 1) * N * K * -(-T // 512) + 2 * K * -(-B // 512) * (
        1 + -(-record // 64)
    )


def _plan_blocks(K, N, r, c):
    """_digest_blocks of the plan for (r, c) on N files, at its default T."""
    return _digest_blocks(K, N, r, composer.safe_iva_bits(composer.plan_for_target(K, N, r, c)))


def test_digest_budget_refuses_only_above_it(capsys, monkeypatch):
    import d3c.cli

    small = ("--K", "3", "--N", "6", "--r", "2", "--T", "8")
    # verify counts each scheme at its own default T
    verify = sum(
        _digest_blocks(K, p.N, r, p.T)
        for K in (2, 3)
        for r in range(1, K)
        for g in range(1, r + 1)
        for p in [make_params(K, math.comb(K, r) * math.comb(r, g), r, g)]
    )
    # a composite plan is counted at the T it runs with, its own default
    # safe_iva_bits(plan): 8 for each plan here
    r = Fraction(5, 2)
    sweep = sum(_plan_blocks(4, composer.minimal_files(4, r, c), r, c) for c in (1, Fraction(5, 4)))
    for argv, count in (
        (("verify", "--K", "3"), verify),
        (("simulate", *small, "--g", "2"), _digest_blocks(3, 6, 2, 8)),
        (("simulate", *small, "--cdc", "--B", "1000"), _digest_blocks(3, 6, 2, 8, 1000)),
        (("simulate", *small[:6], "--c", "4/3"), _plan_blocks(3, 6, 2, Fraction(4, 3))),
        (("compare", *small, "--g", "1,2", "--cdc"), 3 * _digest_blocks(3, 6, 2, 8)),
        (("sweep", "--K", "4", "--r", "2.5", "--c", "1,5/4", "--execute"), sweep),
    ):
        monkeypatch.setattr(d3c.cli, "DIGEST_BUDGET", count - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"needs {count} 512-bit digest blocks, over the budget of {count - 1}" in err
        monkeypatch.setattr(d3c.cli, "DIGEST_BUDGET", count)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv
    assert verify == 151 and _digest_blocks(3, 6, 2, 8) == 66  # worked by hand


@st.composite
def grid_targets(draw):
    """The benchmark's planning grid: K 3-16, r on the 1/4 grid in [1, K),
    20 evenly spaced c in [1, r]."""
    K = draw(st.integers(3, 16))
    r = Fraction(draw(st.integers(4, 4 * K - 1)), 4)
    return K, r, 1 + (r - 1) * Fraction(draw(st.integers(0, 19)), 19)


@settings(max_examples=100, deadline=None, database=None)
@given(grid_targets())
@example((12, Fraction(11), Fraction(39, 19)))
def test_a_refused_plan_names_the_blocks_of_its_own_value_size(target):
    # a plan is counted at the T it executes with; with no budget every run
    # on its minimal corpus inside the pair budget is refused, naming that count
    import d3c.cli

    K, r, c = target
    N = composer.minimal_files(K, r, c)
    assume(N * K <= 2**20)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(d3c.cli, "DIGEST_BUDGET", 0), redirect_stdout(out), redirect_stderr(err):
        code = main(["simulate", "--K", str(K), "--N", str(N), "--r", str(r), "--c", str(c)])
    assert (code, out.getvalue()) == (1, "")
    needs = f"needs {_plan_blocks(K, N, r, c)} 512-bit digest blocks, over the budget of 0"
    assert needs in err.getvalue()


def test_a_plans_T_refusal_names_the_T_of_the_whole_plan(capsys):
    # the g = 2 group takes T = 8 and the g = 3 group T = 24, so both
    # refusals name the plan's safe_iva_bits, 24, not one group's
    simulate = ("simulate", "--K", "5", "--N", "40", "--r", "9/4", "--c", "63/38")
    assert composer.safe_iva_bits(composer.plan_for_target(5, 40, "9/4", "63/38")) == 24
    for T in ("1", "8"):
        code, out, err = run(capsys, *simulate, "--T", T)
        assert (code, out) == (1, ""), T
        assert err.endswith("the smallest whole-byte T for this plan is 24\n"), err
    code, out, err = run(capsys, *simulate, "--T", "24")
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["passed"] is True


def test_plans_run_within_the_budget_at_their_own_value_size(capsys):
    # each plan here runs at T = 88; counted at 8 lcm(1..11) = 221,760 bits
    # instead, the two needed 54,913,152 and 109,826,304 blocks
    simulate = ("simulate", "--K", "12", "--N", "12", "--r", "11", "--c", "39/19")
    code, out, err = run(capsys, *simulate)
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["passed"] is True
    assert run(capsys, *simulate, "--T", "88") == (code, out, err)
    code, out, err = run(capsys, "sweep", "--K", "12", "--r", "11", "--c", "39/19,3", "--execute")
    assert (code, err) == (0, "")
    assert [row[-1] for row in parse_csv(out)[1]] == ["true", "true"]
    # so do basic schemes, each at T = 8 here; at 8 lcm(1..r) the first
    # needed 603,857,184 blocks
    for argv in (
        ("simulate", "--K", "12", "--N", "132", "--r", "11", "--g", "1"),
        ("simulate", "--K", "30", "--N", "870", "--r", "29", "--g", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["verification"]["passed"] is True, argv
        assert run(capsys, *argv, "--T", "8") == (code, out, err), argv
    compare = ("compare", "--K", "12", "--N", "132", "--r", "11", "--g", "1,11", "--cdc")
    code, out, err = run(capsys, *compare)
    assert (code, err) == (0, "")
    assert [row[-1] for row in parse_csv(out)[1]] == ["true"] * 3
    assert run(capsys, *compare, "--T", "8") == (code, out, err)


@st.composite
def basic_requests(draw):
    """K 2-8, every 1 <= g <= r <= K (g = r also as the cdc baseline), and N
    one to six times the scheme's smallest file count."""
    K = draw(st.integers(2, 8))
    r = draw(st.integers(1, K))
    g = draw(st.integers(1, r))
    N = math.comb(K, r) * math.comb(r, g) * draw(st.integers(1, 6))
    return K, r, g, N, g == r and draw(st.booleans())


@settings(max_examples=120, deadline=None, database=None)
@given(basic_requests())
@example((3, 2, 2, 6, True))
@example((8, 4, 2, 2520, False))
def test_the_default_T_is_the_smallest_whole_byte_T_accepted(request):
    # the CLI's and the library's default T is the smallest multiple of 8
    # that SchemeParams accepts, and divides 8 lcm(1..r), which works for
    # every g and batch size, so it is never larger
    K, r, g, N, cdc = request
    argv = ["inspect", "--K", str(K), "--N", str(N), "--r", str(r)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--cdc"] if cdc else [*argv, "--g", str(g)])
    assert code == 0
    T = json.loads(out.getvalue())["params"]["T"]
    library = build_cdc_scheme(K, N, r).params if cdc else make_params(K, N, r, g)
    assert library.T == T

    def accepted(T):
        try:
            SchemeParams(K=K, N=N, F=64, T=T, r=r, g=g)
        except InvalidParameterError:
            return False
        return True

    assert T == next(T for T in itertools.count(8, 8) if accepted(T))
    assert 8 * math.lcm(*range(1, r + 1)) % T == 0


def test_readme_refusals_exit_at_once(capsys, digit_limit):
    """Each backticked ``<subcommand> --K ...`` span of README's "Exit codes"
    paragraph is refused (exit 1 or 2) with nothing on stdout, within 1 s."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text()
    paragraph = readme.split("\nExit codes:", 1)[1].split("\n\n", 1)[0].replace("\n", " ")
    commands = "tradeoff|simulate|compare|verify|sweep|inspect"
    spans = re.findall(rf"`((?:{commands}) --K [^`]*)`", paragraph)
    assert len(spans) == 13
    for span in spans:
        start = time.perf_counter()
        code, out, _ = run(capsys, *span.split())
        assert time.perf_counter() - start < 1, span
        assert code in (1, 2) and out == "", span


def test_row_requests_over_budget_are_refused_from_counts(capsys):
    # each would emit rows for seconds to hours; counted from the arguments
    for argv, rows in (
        (("tradeoff", "--K", "10", "--r", "4.5", "--resolution", "100000000"), 5 * 100000001 + 1),
        (("tradeoff", "--K", "200000", "--r", "100000", "--resolution", "20"), 100001 * 21 + 1),
        (("tradeoff", "--K", "100000", "--cstar-sweep"), 20 * 99999),
        (("tradeoff", "--K", "100000", "--cstar-sweep", "--format", "json"), 20 * 99999),
        (("sweep", "--K", "10", "--r", "2,9/2", "--resolution", "600000"), 3 + 5 + 2 * 600000),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (1, ""), argv
        assert f"needs {rows} rows, over the budget" in err, argv


def test_row_budget_refuses_only_above_it(capsys, monkeypatch):
    import d3c.cli

    for argv, rows in (
        (("tradeoff", "--K", "10", "--r", "4.5", "--resolution", "2"), 5 * 3 + 1),
        (("tradeoff", "--K", "10", "--r", "3", "--resolution", "2"), 4 * 3 + 1),
        (("tradeoff", "--K", "10", "--r", "4.5", "--format", "json"), 6),
        (("tradeoff", "--K", "10", "--cstar-sweep"), 180),
        (("sweep", "--K", "10", "--r", "2,4.5", "--resolution", "20"), 3 + 20 + 5 + 20),
        (("sweep", "--K", "4", "--r", "2.5", "--c", "1,5/4,3/2"), 3 + 3),
    ):
        monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", rows - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"needs {rows} rows, over the budget of {rows - 1}" in err, argv
        monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", rows)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv


def test_row_budget_follows_the_argument_checks(capsys, monkeypatch):
    import d3c.cli

    monkeypatch.setattr(d3c.cli, "SIZE_BUDGET", 0)
    for argv, message in (
        (("tradeoff", "--K", "4"), "requires --r"),
        (("tradeoff", "--K", "4", "--r", "9"), "need 1 <= r < 4"),
        (("tradeoff", "--K", "1", "--r", "1"), "need at least 2 nodes"),
        (("tradeoff", "--K", "4", "--r", "2", "--resolution", "-1"), "non-negative"),
        (("tradeoff", "--K", "1", "--cstar-sweep"), "need --K >= 2"),
        (("sweep", "--K", "4", "--r", "2", "--resolution", "1"), "at least 2"),
        (("sweep", "--K", "4", "--r", "2,5"), "storage value 5 outside"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert message in err and "budget" not in err, argv


def test_zero_value_size_is_rejected(capsys, monkeypatch):
    import d3c.engine

    def no_corpus(*args):
        raise AssertionError("corpus built before the value sizes were checked")

    monkeypatch.setattr(d3c.engine, "generate_corpus", no_corpus)
    base = ("--K", "3", "--N", "6", "--r", "2", "--T", "0")
    for argv in (
        ("simulate", *base, "--g", "2"),
        ("simulate", *base, "--c", "4/3"),
        ("simulate", *base, "--cdc"),
        ("inspect", *base, "--g", "2"),
        ("inspect", *base, "--cdc"),
        ("sweep", "--K", "4", "--r", "2", "--resolution", "2", "--execute", "--T", "0"),
        ("sweep", "--K", "6", "--r", "5/2", "--c", "3/2", "--execute", "--T", "0"),
        ("simulate", "--K", "3", "--N", "6", "--r", "2", "--c", "4/3", "--B", "0"),
        ("compare", "--K", "10", "--N", "1260", "--r", "4", "--g", "2", "--B", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "positive" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sweep", "--K", "4", "--r", "2", "--T", "0"), "--T"),
        (("sweep", "--K", "4", "--r", "2", "--seed", "9"), "--seed"),
        (("sweep", "--K", "4", "--r", "2", "--c", "1,3/2", "--resolution", "7"), "--resolution"),
        (("tradeoff", "--K", "10", "--cstar-sweep", "--r", "4.5", "--resolution", "3"), "--r"),
        (("tradeoff", "--K", "10", "--cstar-sweep", "--resolution", "3"), "--resolution"),
        # refused before the size check, which these requests would also fail
        (("sweep", "--K", "4", "--r", "2", "--T", "8", "--resolution", str(2**21)), "--T"),
        (("tradeoff", "--K", str(10**6), "--cstar-sweep", "--r", "2"), "--r"),
        # JSON writes the curve points alone
        (("tradeoff", "--K", "10", "--r", "4.5", "--resolution", "50", "--format", "json"),
         "--resolution"),
    ],
)
def test_flag_the_mode_ignores_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"d3c: error: {flag} has no effect" in err and "budget" not in err


def test_sweep_rejects_resolution_below_two(capsys):
    for resolution in ("0", "1", "-3"):
        code, out, err = run(capsys, "sweep", "--K", "10", "--r", "2", "--resolution", resolution)
        assert (code, out) == (1, "")
        assert "--resolution must be at least 2" in err
    code, out, _ = run(capsys, "sweep", "--K", "10", "--r", "2", "--resolution", "2")
    assert code == 0
    assert len(parse_csv(out)[1]) == 2


def test_simulate_and_compare_fail_on_load_gap(capsys, monkeypatch):
    import d3c.engine

    real = d3c.engine.basic_communication
    monkeypatch.setattr(
        d3c.engine, "basic_communication", lambda K, r, g: real(K, r, g) + Fraction(1, 100)
    )
    for how in (("--g", "2"), ("--c", "4/3"), ("--cdc",)):
        code, out, _ = run(capsys, "simulate", "--K", "3", "--N", "6", "--r", "2", *how)
        assert code == 3, how
        doc = json.loads(out)
        assert doc["verification"]["passed"] is True  # only the load is off
        assert doc["measured"]["communication_load"] != doc["predicted"]["communication_load"]
    code, out, _ = run(capsys, "compare", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--cdc")
    assert code == 3
    _, rows = parse_csv(out)
    assert [row[6] for row in rows] == ["true", "true"]
    assert all(row[3] != row[5] for row in rows)


def test_inspect_schema(capsys):
    code, out, _ = run(
        capsys, "inspect", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--T", "8"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "d3c"
    assert doc["params"]["N"] == 6
    assert doc["batches"][0]["files"] == [1, 2]
    code, out, _ = run(capsys, "inspect", "--K", "3", "--N", "6", "--r", "2", "--cdc")
    assert json.loads(out)["kind"] == "cdc"


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "simulate", "--K", "3", "--N", "6", "--r", "2", "--c", "4/3",
            "--T", "8", "--seed", "7", "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    small = ("--K", "3", "--N", "6", "--r", "2", "--g", "2", "--T", "8")
    for target in (tmp_path / "missing" / "x.out", tmp_path):
        for argv in (
            ("tradeoff", "--K", "10", "--r", "4.5"),
            ("inspect", *small),
            ("simulate", *small),
        ):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert (code, out) == (1, ""), (argv, target)
            assert err.startswith(f"d3c: error: cannot write {target}: "), err
    assert not (tmp_path / "missing").exists()


def test_too_large_counts_are_usage_errors(capsys):
    for argv in (
        ("inspect", "--K", "70", "--N", "6", "--r", "35", "--g", "1"),
        ("simulate", "--K", "100", "--N", "6", "--r", "50", "--g", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("d3c: error: C(") and "exceeds the 64-bit count range" in err


def test_a_default_T_is_computed_after_the_cheap_checks(capsys):
    # the file count is refused from the parameters, before any scheme
    start = time.perf_counter()
    argv = ("inspect", "--K", "100000", "--N", "10", "--r", "99999", "--g", "1")
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "d3c: infeasible: file count 10 is not a multiple of C(100000,99999)*C(99999,1) = "
        "9999900000; smallest admissible count is 9999900000\n"
    )


def test_inspect_at_K_equal_r_700_is_quick(capsys):
    # one batch that every node stores and codes, so each of the 700 nodes
    # takes the complement of the batch's 700-node storage set
    start = time.perf_counter()
    code, out, _ = run(capsys, "inspect", "--K", "700", "--N", "1", "--r", "700", "--g", "700")
    assert time.perf_counter() - start < 1
    assert code == 0
    doc = json.loads(out)
    assert doc["storage"] == {str(k): [1] for k in range(1, 701)}
    assert doc["compute_own"]["700"] == [[700, 1]] and doc["compute_coded"]["700"] == []


def test_inspect_at_K_equal_r_5000_is_quick(capsys):
    # the compute rule is derived once per batch: the one batch's complement
    # and coding set are built once, not once for each of its 5000 members
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "inspect", "--K", "5000", "--N", "1", "--r", "5000", "--g", "5000", "--T", "40000"
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    doc = json.loads(out)
    assert doc["storage"] == {str(k): [1] for k in range(1, 5001)}
    assert doc["compute_own"]["5000"] == [[5000, 1]] and doc["compute_coded"]["5000"] == []


def test_inspect_builds_no_coding_table(capsys, monkeypatch):
    import d3c.scheme

    enumerated, enum_pi = [], d3c.scheme.enum_pi
    monkeypatch.setattr(d3c.scheme, "enum_pi", lambda *a: enumerated.append(a) or enum_pi(*a))
    code, out, _ = run(capsys, "inspect", "--K", "5", "--N", "30", "--r", "3", "--g", "2")
    assert code == 0
    assert len(json.loads(out)["batches"]) == 30
    assert enumerated == []  # only the coded exchange reads the table


@pytest.mark.parametrize("fmt, bound_mib", [("csv", 3), ("json", 11)])
def test_a_large_table_is_built_once(tmp_path, fmt, bound_mib):
    """tradeoff --K 500 --cstar-sweep writes 9,980 rows. On CPython 3.11 its
    traced peak was 6.2 MiB as CSV and 13.8 MiB as JSON while the writer held
    every row, a string per cell and the output (or json.dumps's chunk list)
    at once, and is 1.2 and 7.8 MiB with rows passed from the generator to the
    one output string."""
    argv = ["tradeoff", "--K", "500", "--cstar-sweep", "--format", fmt]
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "cstar")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "cstar").read_text()
    assert (code, len(json.loads(text)) if fmt == "json" else text.count("\n") - 1) == (0, 9980)
    assert peak < bound_mib * 2**20


def test_saturation_sweep_needs_two_nodes(capsys):
    for K in ("1", "0", "-2"):
        code, out, err = run(capsys, "tradeoff", "--cstar-sweep", "--K", K)
        assert (code, out) == (1, "")
        assert "need --K >= 2" in err


def test_unsupported_format_is_rejected(capsys):
    for argv in (
        ("sweep", "--K", "4", "--r", "2", "--format", "json"),
        ("simulate", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--format", "csv"),
        ("inspect", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--format", "csv"),
        ("tradeoff", "--K", "3", "--r", "2", "--format", "xml"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "argument --format: invalid choice" in err
    for argv in (
        ("tradeoff", "--K", "3", "--r", "2", "--format", "json"),
        ("compare", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--format", "json"),
        ("verify", "--K", "3", "--format", "json"),
        ("simulate", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--format", "json"),
        ("inspect", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--format", "json"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)
    code, out, _ = run(capsys, "sweep", "--K", "4", "--r", "2", "--format", "csv")
    assert code == 0
    assert parse_csv(out)[0] == ["r", "c", "predicted_L", "measured_L", "verified"]
