"""Command-line surface: flags, formats, file outputs, exit codes."""

import json
import math
import time
from fractions import Fraction

import pytest

from d3c import composer
from d3c.cli import main


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
    code, _, err = run(
        capsys, "simulate", "--K", "3", "--N", "6", "--r", "2", "--cdc", "--g", "2"
    )
    assert code == 1


def test_simulate_infeasible_exit(capsys):
    code, _, err = run(capsys, "simulate", "--K", "3", "--N", "5", "--r", "2", "--c", "4/3")
    assert code == 2
    assert "smallest admissible file count is 3" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "tradeoff")[0] == 1  # missing --K
    assert run(capsys, "tradeoff", "--K", "x")[0] == 1
    assert run(capsys)[0] == 1


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


def test_requests_over_budget_are_refused_from_counts(capsys):
    # verify --K 16 would build 996,904,236 (file, node) pairs over its
    # schemes and 10^7 files at K = 10 are 10^8 pairs; K counts as at least
    # 1, so a K = 0 request with a huge N is refused from counts too
    for argv, pairs in (
        (("verify", "--K", "16"), 996904236),
        (("simulate", "--K", "10", "--N", "10000000", "--r", "2", "--g", "1"), 10**8),
        (("compare", "--K", "0", "--N", str(2**21), "--r", "1", "--g", "1"), 2**21),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert f"needs {pairs} (file, node) pairs" in err


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
        (("tradeoff", "--K", "10", "--r", "4.5", "--resolution", "50", "--format", "json"), 6),
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


def test_zero_value_size_is_rejected(capsys):
    base = ("--K", "3", "--N", "6", "--r", "2", "--T", "0")
    for argv in (
        ("simulate", *base, "--g", "2"),
        ("simulate", *base, "--c", "4/3"),
        ("simulate", *base, "--cdc"),
        ("inspect", *base, "--g", "2"),
        ("inspect", *base, "--cdc"),
        ("sweep", "--K", "4", "--r", "2", "--resolution", "2", "--execute", "--T", "0"),
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
