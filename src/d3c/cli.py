"""Command-line interface.

Subcommands: tradeoff, simulate, compare, verify, sweep, inspect.
Exit codes: 0 success (verifications passed), 1 usage error, 2 infeasible
file count, 3 verification or execution failure (a measured load that
differs from its prediction included). Output files are byte-identical
across runs for identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import analytics, composer, engine
from .errors import D3CError, DivisibilityError, InvalidParameterError
from .scheme import (
    BasicScheme,
    LoadReport,
    SchemeParams,
    build_basic_scheme,
    build_cdc_scheme,
    default_iva_bits,
    scheme_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3

# Most (file, node) pairs an executed sweep may plan, summed over its points;
# a point at computation load c maps c values per pair on average.
SWEEP_BUDGET = 2**20


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _sig(x) -> str:
    """12-significant-digit decimal form used in CSV output."""
    return f"{float(x):.12g}"


def _write_text(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (usage errors -> 1)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="d3c", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, formats: tuple[str, ...], **flags) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=formats, help="output format")
        return p

    p = add(
        "tradeoff",
        "emit the load curve for one storage space, or the saturation sweep",
        ("csv", "json"),
        K={"type": int, "required": True},
        r={"type": _fraction},
        resolution={"type": int, "default": 0, "help": "interpolated samples per segment"},
    )
    p.add_argument("--cstar-sweep", action="store_true", dest="cstar_sweep")
    p.set_defaults(handler=_cmd_tradeoff)

    p = add(
        "simulate",
        "plan, execute, and verify one run",
        ("json",),
        K={"type": int, "required": True},
        N={"type": int, "required": True},
        r={"type": _fraction, "required": True},
        c={"type": _fraction},
        g={"type": int},
        T={"type": int},
        B={"type": int},
        seed={"type": int, "default": 0},
    )
    p.add_argument("--cdc", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = add(
        "compare",
        "execute several schemes on one corpus and tabulate the loads",
        ("csv", "json"),
        K={"type": int, "required": True},
        N={"type": int, "required": True},
        r={"type": int, "required": True},
        g={"type": _int_list, "default": []},
        T={"type": int},
        B={"type": int},
        seed={"type": int, "default": 0},
    )
    p.add_argument("--cdc", action="store_true")
    p.set_defaults(handler=_cmd_compare)

    p = add(
        "verify",
        "exhaustively check decodability and exact loads up to a node count",
        ("csv", "json"),
        K={"type": int, "required": True, "help": "largest node count to check"},
        seed={"type": int, "default": 0},
    )
    p.set_defaults(handler=_cmd_verify)

    p = add(
        "sweep",
        "tabulate predicted (and optionally measured) loads over a grid",
        ("csv",),
        K={"type": int, "required": True},
        r={"type": _fraction_list, "required": True},
        c={"type": _fraction_list, "default": []},
        T={"type": int},
        seed={"type": int, "default": 0},
        resolution={"type": int, "default": 20, "help": "grid points per storage value"},
    )
    p.add_argument("--execute", action="store_true")
    p.set_defaults(handler=_cmd_sweep)

    p = add(
        "inspect",
        "serialize a scheme's placement and compute plan as JSON",
        ("json",),
        K={"type": int, "required": True},
        N={"type": int, "required": True},
        r={"type": int, "required": True},
        g={"type": int},
        T={"type": int},
    )
    p.add_argument("--cdc", action="store_true")
    p.set_defaults(handler=_cmd_inspect)

    return parser


def _cmd_tradeoff(args) -> int:
    fmt = args.format or "csv"
    if args.cstar_sweep:
        if args.K < 2:
            raise InvalidParameterError("need --K >= 2")
        step = Fraction(1, 20)
        rows = []
        r = Fraction(1)
        while r < args.K:
            rows.append((r, analytics.c_star(args.K, r)))
            r += step
        if fmt == "json":
            text = json.dumps(
                [{"r": str(r), "c_star": str(cs), "c_equals_r": str(r)} for r, cs in rows],
                indent=2,
            ) + "\n"
        else:
            text = _csv(
                [[_sig(r), _sig(cs), _sig(r)] for r, cs in rows],
                ["r", "c_star", "c_equals_r"],
            )
        _write_text(args.out, text)
        return EXIT_OK
    if args.r is None:
        raise InvalidParameterError("tradeoff requires --r (or --cstar-sweep)")
    curve = analytics.build_curve(args.K, args.r, args.resolution)
    if fmt == "json":
        text = analytics.curve_to_json(curve) + "\n"
    else:
        rows = [[_sig(c), _sig(L), kind] for c, L, kind in analytics.curve_rows(curve)]
        text = _csv(rows, ["c", "L", "segment_kind"])
    _write_text(args.out, text)
    return EXIT_OK


def _basic_scheme(args, r: int) -> BasicScheme:
    """The --cdc baseline or the --g coded scheme at integer storage r; --T
    defaults to default_iva_bits(r)."""
    T = default_iva_bits(r) if args.T is None else args.T
    if args.cdc:
        return build_cdc_scheme(args.K, args.N, r, T=T)
    return build_basic_scheme(SchemeParams(K=args.K, N=args.N, F=64, T=T, r=r, g=args.g))


def _resolve_simulate_plan(args):
    if args.cdc:
        if args.g is not None:
            raise InvalidParameterError("--cdc does not take --g")
        if args.r.denominator != 1:
            raise InvalidParameterError("the baseline scheme needs integer --r")
        if args.c is not None and args.c != args.r:
            raise InvalidParameterError("the baseline always computes c = r")
    elif (args.c is None) == (args.g is None):
        raise InvalidParameterError("give exactly one of --c or --g")
    elif args.g is not None and args.r.denominator != 1:
        raise InvalidParameterError("--g requires integer --r")
    if args.cdc or args.g is not None:
        scheme = _basic_scheme(args, int(args.r))
        return scheme, scheme.params.T
    plan = composer.plan_for_target(args.K, args.N, args.r, args.c)
    return plan, composer.safe_iva_bits(plan) if args.T is None else args.T


def _cmd_simulate(args) -> int:
    plan, T = _resolve_simulate_plan(args)
    corpus = engine.generate_corpus(args.N, 64, args.seed)
    suite = engine.default_suite(T, args.B)
    report = engine.execute(plan, corpus, suite, audit=True)
    _write_text(args.out, report.to_json() + "\n")
    ok =report.verification_passed and report.measured == LoadReport(**report.predicted)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_compare(args) -> int:
    configs: list[tuple] = [("d3c", args.r, g) for g in args.g]
    if args.cdc:
        configs.append(("cdc", args.r))
    if not configs:
        raise InvalidParameterError("nothing to compare: give --g and/or --cdc")
    rows = engine.compare_schemes(
        configs, args.K, args.N, T=args.T, B=args.B, seed=args.seed
    )
    if (args.format or "csv") == "json":
        text = json.dumps(
            [
                {
                    "name": row.name,
                    "r": str(row.storage),
                    "c": str(row.computation),
                    "L": str(row.communication),
                    "predicted_c": str(row.predicted_computation),
                    "predicted_L": str(row.predicted_communication),
                    "verified": row.verified,
                }
                for row in rows
            ],
            indent=2,
        ) + "\n"
    else:
        text = _csv(
            [
                [
                    row.name,
                    _sig(row.storage),
                    _sig(row.computation),
                    _sig(row.communication),
                    _sig(row.predicted_computation),
                    _sig(row.predicted_communication),
                    str(row.verified).lower(),
                ]
                for row in rows
            ],
            ["name", "r", "c", "L", "predicted_c", "predicted_L", "verified"],
        )
    _write_text(args.out, text)
    ok = all(
        row.verified
        and row.computation == row.predicted_computation
        and row.communication == row.predicted_communication
        for row in rows
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    if args.K < 2:
        raise InvalidParameterError("need --K >= 2")
    rows = []
    all_ok = True
    for K in range(2, args.K + 1):
        for r in range(1, K):
            for g in range(1, r + 1):
                N = composer.group_divisor(K, r, g)
                T = 4 * g
                params = SchemeParams(K=K, N=N, F=16, T=T, r=r, g=g)
                scheme = build_basic_scheme(params)
                corpus = engine.generate_corpus(N, 16, args.seed)
                report = engine.execute(scheme, corpus, engine.default_suite(T))
                measured, predicted = report.measured, report.predicted
                c_ok = measured.computation_load == predicted["computation_load"]
                l_ok = measured.communication_load == predicted["communication_load"]
                d_ok = report.verification_passed
                ok = c_ok and l_ok and d_ok
                all_ok &= ok
                rows.append([K, r, g, N, _b(c_ok), _b(l_ok), _b(d_ok), _b(ok)])
    header = ["K", "r", "g", "N", "computation_ok", "communication_ok", "decode_ok", "pass"]
    if (args.format or "csv") == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        text = _csv(rows, header)
    _write_text(args.out, text)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _b(flag: bool) -> str:
    return str(bool(flag)).lower()


def _cmd_sweep(args) -> int:
    if args.resolution < 2:
        raise InvalidParameterError(f"--resolution must be at least 2, got {args.resolution}")
    points = []  # (r, c, predicted L, files the executed plan needs)
    for r in args.r:
        if not 1 <= r < args.K:
            raise InvalidParameterError(f"storage value {r} outside [1, {args.K})")
        curve = analytics.build_curve(args.K, r)
        if args.c:
            c_values = args.c
        else:
            n = args.resolution
            c_values = [1 + (r - 1) * Fraction(i, n - 1) for i in range(n)]
        for c in c_values:
            predicted = analytics.query_load(curve, c)
            N = composer.minimal_files(args.K, r, c) if args.execute else 0
            points.append((r, c, predicted, N))
    size = sum(N for *_, N in points) * args.K
    if size > SWEEP_BUDGET:
        raise InvalidParameterError(
            f"the executed sweep needs {size} (file, node) pairs, "
            f"over the budget of {SWEEP_BUDGET}"
        )
    rows = []
    all_ok = True
    for r, c, predicted, N in points:
        measured = ""
        verified = ""
        if args.execute:
            plan = composer.plan_for_target(args.K, N, r, c)
            T = composer.safe_iva_bits(plan) if args.T is None else args.T
            corpus = engine.generate_corpus(N, 64, args.seed)
            report = engine.execute(plan, corpus, engine.default_suite(T))
            measured = _sig(report.measured.communication_load)
            verified = _b(report.verification_passed)
            all_ok &= report.verification_passed
            all_ok &= report.measured.communication_load == predicted
        rows.append([_sig(r), _sig(c), _sig(predicted), measured, verified])
    text = _csv(rows, ["r", "c", "predicted_L", "measured_L", "verified"])
    _write_text(args.out, text)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _cmd_inspect(args) -> int:
    if args.cdc and args.g is not None:
        raise InvalidParameterError("--cdc does not take --g")
    if not args.cdc and args.g is None:
        raise InvalidParameterError("give --g for the coded scheme or --cdc")
    _write_text(args.out, scheme_to_json(_basic_scheme(args, args.r)) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.handler(args)
    except DivisibilityError as err:
        msg = str(err)
        if err.min_files is not None and "smallest admissible" not in msg:
            msg += f" (smallest admissible file count: {err.min_files})"
        print(f"d3c: infeasible: {msg}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidParameterError, OverflowError) as err:
        print(f"d3c: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except D3CError as err:
        print(f"d3c: failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
