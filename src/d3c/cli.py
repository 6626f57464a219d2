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
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import analytics, composer, engine
from .combinatorics import group_divisor
from .errors import D3CError, DivisibilityError, InvalidParameterError
from .scheme import (
    BasicScheme,
    LoadReport,
    SchemeParams,
    build_basic_scheme,
    build_cdc_scheme,
    default_iva_bits,
    scheme_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3

# Most (file, node) pairs one request may build, summed over its schemes; a
# scheme at computation load c maps c values per pair on average.
SIZE_BUDGET = 2**20


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


def _write_text(out: str | None, text: str) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as err:
        raise InvalidParameterError(f"cannot write {out}: {err.strerror}") from err


def _write_json(args, doc) -> None:
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")


def _csv_cell(cell) -> str:
    """A Fraction to 12 significant digits, a bool as true/false, else str."""
    if isinstance(cell, Fraction):
        return f"{float(cell):.12g}"
    if isinstance(cell, bool):
        return str(cell).lower()
    return str(cell)


def _write_table(args, header: list[str], rows: list[list]) -> None:
    """CSV, or with --format json one object per row with each Fraction as
    its exact string."""
    if args.format == "json":
        exact = [[str(c) if isinstance(c, Fraction) else c for c in row] for row in rows]
        _write_json(args, [dict(zip(header, row)) for row in exact])
        return
    lines = [header] + [[_csv_cell(cell) for cell in row] for row in rows]
    _write_text(args.out, "".join(",".join(line) + "\n" for line in lines))


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
        resolution={"type": int, "help": "interpolated samples per segment (default 0)"},
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
        seed={"type": int},
        resolution={"type": int, "help": "grid points per storage value (default 20)"},
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


def _refuse_ignored(mode: str, **flags) -> None:
    """Refuse each given flag that the chosen mode would ignore."""
    for flag, value in flags.items():
        if value is not None:
            raise InvalidParameterError(f"--{flag} has no effect {mode}")


def _cmd_tradeoff(args) -> int:
    if args.cstar_sweep:
        _refuse_ignored("with --cstar-sweep", r=args.r, resolution=args.resolution)
        if args.K < 2:
            raise InvalidParameterError("need --K >= 2")
        _check_size(args, 20 * (args.K - 1), "rows")
        rows = []
        r = Fraction(1)
        while r < args.K:
            rows.append([r, analytics.c_star(args.K, r), r])
            r += Fraction(1, 20)
        _write_table(args, ["r", "c_star", "c_equals_r"], rows)
        return EXIT_OK
    if args.r is None:
        raise InvalidParameterError("tradeoff requires --r (or --cstar-sweep)")
    analytics.g_r(args.K, args.r)  # refuses a bad K or r as build_curve would
    resolution = 0 if args.resolution is None else args.resolution
    if resolution < 0:
        raise InvalidParameterError("resolution must be non-negative")
    # at most floor(r) + 1 curve points, each segment with its samples, and
    # the end of the flat tail; JSON writes the points alone
    samples = 0 if args.format == "json" else resolution
    _check_size(args, (math.floor(args.r) + 1) * (samples + 1) + 1, "rows")
    curve = analytics.build_curve(args.K, args.r)
    if args.format == "json":
        _write_json(args, analytics.curve_to_dict(curve))
    else:
        rows = analytics.curve_rows(curve, resolution)
        _write_table(args, ["c", "L", "segment_kind"], rows)
    return EXIT_OK


def _check_size(args, count: int, unit: str = "(file, node) pairs") -> None:
    """Refuse, from counts alone, a request over SIZE_BUDGET (file, node)
    pairs or output rows. Callers count N*K per scheme with K at least 1, so
    a K below 1 with a huge N is refused from counts like any other."""
    if count > SIZE_BUDGET:
        raise InvalidParameterError(
            f"this {args.command} needs {count} {unit}, over the budget of {SIZE_BUDGET}"
        )


def _basic_scheme(args, r: int, g: int | None) -> BasicScheme:
    """The coded scheme at integer storage r and coding parameter g, or the
    cdc baseline when g is None; --T defaults to default_iva_bits(r)."""
    T = default_iva_bits(r) if args.T is None else args.T
    if g is None:
        return build_cdc_scheme(args.K, args.N, r, T=T)
    return build_basic_scheme(SchemeParams(K=args.K, N=args.N, F=64, T=T, r=r, g=g))


def _passed(report: engine.ExecutionReport) -> bool:
    """Decoding verified and every measured load equal to its prediction."""
    return report.verification_passed and report.measured == LoadReport(**report.predicted)


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
    _check_size(args, args.N * max(args.K, 1))
    if args.cdc or args.g is not None:
        scheme = _basic_scheme(args, int(args.r), args.g)
        return scheme, scheme.params.T
    plan = composer.plan_for_target(args.K, args.N, args.r, args.c)
    return plan, composer.safe_iva_bits(plan) if args.T is None else args.T


def _cmd_simulate(args) -> int:
    plan, T = _resolve_simulate_plan(args)
    corpus = engine.generate_corpus(args.N, 64, args.seed)
    suite = engine.default_suite(T, args.B)
    report = engine.execute(plan, corpus, suite)
    _write_json(args, report.to_dict())
    return EXIT_OK if _passed(report) else EXIT_VERIFICATION


def _cmd_compare(args) -> int:
    gs = [*args.g, None] if args.cdc else args.g
    if not gs:
        raise InvalidParameterError("nothing to compare: give --g and/or --cdc")
    _check_size(args, len(gs) * args.N * max(args.K, 1))
    # every scheme is built, and so validated, before the corpus
    schemes = [_basic_scheme(args, args.r, g) for g in gs]
    corpus = engine.generate_corpus(args.N, 64, args.seed)
    suite = engine.default_suite(schemes[0].params.T, args.B)
    rows = []
    all_ok = True
    for g, scheme in zip(gs, schemes):
        report = engine.execute(scheme, corpus, suite)
        measured, predicted = report.measured, report.predicted
        rows.append([
            f"cdc-r{args.r}" if g is None else f"d3c-r{args.r}-g{g}",
            measured.storage_space,
            measured.computation_load,
            measured.communication_load,
            predicted["computation_load"],
            predicted["communication_load"],
            report.verification_passed,
        ])
        all_ok &= _passed(report)
    _write_table(args, ["name", "r", "c", "L", "predicted_c", "predicted_L", "verified"], rows)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _verify_grid(K_max: int):
    """Every (K, r, g, N) that verify checks, N the scheme's smallest file count."""
    for K in range(2, K_max + 1):
        for r in range(1, K):
            for g in range(1, r + 1):
                yield K, r, g, group_divisor(K, r, g)


def _cmd_verify(args) -> int:
    if args.K < 2:
        raise InvalidParameterError("need --K >= 2")
    _check_size(args, sum(N * K for K, _, _, N in _verify_grid(args.K)))
    rows = []
    all_ok = True
    for K, r, g, N in _verify_grid(args.K):
        T = 4 * g
        scheme = build_basic_scheme(SchemeParams(K=K, N=N, F=16, T=T, r=r, g=g))
        corpus = engine.generate_corpus(N, 16, args.seed)
        report = engine.execute(scheme, corpus, engine.default_suite(T))
        measured, predicted = report.measured, report.predicted
        c_ok = measured.computation_load == predicted["computation_load"]
        l_ok = measured.communication_load == predicted["communication_load"]
        d_ok = report.verification_passed
        ok = _passed(report)
        all_ok &= ok
        # flags as "true"/"false" strings, which the JSON form has always printed
        rows.append([K, r, g, N, *map(_csv_cell, (c_ok, l_ok, d_ok, ok))])
    header = ["K", "r", "g", "N", "computation_ok", "communication_ok", "decode_ok", "pass"]
    _write_table(args, header, rows)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
    if not args.execute:
        _refuse_ignored("without --execute", T=args.T, seed=args.seed)
    if args.c:
        _refuse_ignored("with --c", resolution=args.resolution)
    resolution = 20 if args.resolution is None else args.resolution
    seed = 0 if args.seed is None else args.seed
    if resolution < 2:
        raise InvalidParameterError(f"--resolution must be at least 2, got {resolution}")
    for r in args.r:
        if not 1 <= r < args.K:
            raise InvalidParameterError(f"storage value {r} outside [1, {args.K})")
    # each storage value builds at most floor(r) + 1 curve points and emits
    # one row per computation value
    per_r = len(args.c) or resolution
    _check_size(args, sum(math.floor(r) + 1 + per_r for r in args.r), "rows")
    points = []  # (r, c, predicted L, files the executed plan needs)
    for r in args.r:
        curve = analytics.build_curve(args.K, r)
        if args.c:
            c_values = args.c
        else:
            n = resolution
            c_values = [1 + (r - 1) * Fraction(i, n - 1) for i in range(n)]
        for c in c_values:
            predicted = analytics.query_load(curve, c)
            N = composer.minimal_files(args.K, r, c) if args.execute else 0
            points.append((r, c, predicted, N))
    _check_size(args, sum(N for *_, N in points) * max(args.K, 1))
    rows = []
    all_ok = True
    for r, c, predicted, N in points:
        measured = ""
        verified = ""
        if args.execute:
            plan = composer.plan_for_target(args.K, N, r, c)
            T = composer.safe_iva_bits(plan) if args.T is None else args.T
            corpus = engine.generate_corpus(N, 64, seed)
            report = engine.execute(plan, corpus, engine.default_suite(T))
            measured = report.measured.communication_load
            verified = report.verification_passed
            all_ok &= _passed(report) and measured == predicted
        rows.append([r, c, predicted, measured, verified])
    _write_table(args, ["r", "c", "predicted_L", "measured_L", "verified"], rows)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _cmd_inspect(args) -> int:
    if args.cdc and args.g is not None:
        raise InvalidParameterError("--cdc does not take --g")
    if not args.cdc and args.g is None:
        raise InvalidParameterError("give --g for the coded scheme or --cdc")
    _check_size(args, args.N * max(args.K, 1))
    _write_json(args, scheme_to_dict(_basic_scheme(args, args.r, args.g)))
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
        print(f"d3c: infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidParameterError, OverflowError) as err:
        print(f"d3c: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except D3CError as err:
        print(f"d3c: failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
