"""Command-line interface.

Subcommands: tradeoff, simulate, compare, verify, sweep, inspect.
Exit codes: 0 success (verifications passed), 1 usage error, 2 infeasible
file count, 3 verification or execution failure (a measured load that
differs from its prediction included). Output files are byte-identical
across runs for identical flags and seed.
"""

from __future__ import annotations

import argparse
import io
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
    build_basic_scheme,
    build_cdc_scheme,
    make_params,
    scheme_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3

# Most (file, node) pairs one request may build, summed over its schemes (a
# scheme at computation load c maps c values per pair on average), and most
# 512-bit digest blocks its runs may make, as _check_digests counts them.
SIZE_BUDGET, DIGEST_BUDGET = 2**20, 2**21


def _fraction(text: str) -> Fraction:
    try:
        return analytics.to_fraction(text)
    except InvalidParameterError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",")]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
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
    json.dump(doc, buffer := io.StringIO(), indent=2)  # json.dumps would list every chunk
    buffer.write("\n")
    _write_text(args.out, buffer.getvalue())


def _csv_cell(cell) -> str:
    """A Fraction to 12 significant digits, a bool as true/false, else str."""
    if isinstance(cell, Fraction):
        return f"{float(cell):.12g}"
    if isinstance(cell, bool):
        return str(cell).lower()
    return str(cell)


def _write_table(args, header: list[str], rows) -> None:
    """CSV, or with --format json one object per row with each Fraction as
    its exact string; rows, a list or an iterator, are read once."""
    if args.format == "json":
        exact = ([str(c) if isinstance(c, Fraction) else c for c in row] for row in rows)
        _write_json(args, [dict(zip(header, row)) for row in exact])
        return
    lines = (",".join(map(_csv_cell, row)) + "\n" for row in rows)
    _write_text(args.out, "".join([",".join(header) + "\n", *lines]))


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (usage errors -> 1)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="d3c", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, handler, formats: tuple[str, ...], switches=(), **flags):
        p = sub.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=formats, help="output format")
        for switch in switches:
            p.add_argument(f"--{switch}", action="store_true")
        p.set_defaults(handler=handler)

    add(
        "tradeoff",
        "emit the load curve for one storage space, or the saturation sweep",
        _cmd_tradeoff, ("csv", "json"), ("cstar-sweep",),
        K={"type": int, "required": True},
        r={"type": _fraction},
        resolution={"type": int, "help": "interpolated samples per segment (default 0)"},
    )
    add(
        "simulate",
        "plan, execute, and verify one run",
        _cmd_simulate, ("json",), ("cdc",),
        K={"type": int, "required": True},
        N={"type": int, "required": True},
        r={"type": _fraction, "required": True},
        c={"type": _fraction},
        g={"type": int},
        T={"type": int},
        B={"type": int},
        seed={"type": int, "default": 0},
    )
    add(
        "compare",
        "execute several schemes on one corpus and tabulate the loads",
        _cmd_compare, ("csv", "json"), ("cdc",),
        K={"type": int, "required": True},
        N={"type": int, "required": True},
        r={"type": int, "required": True},
        g={"type": _int_list, "default": []},
        T={"type": int},
        B={"type": int},
        seed={"type": int, "default": 0},
    )
    add(
        "verify",
        "exhaustively check decodability and exact loads up to a node count",
        _cmd_verify, ("csv", "json"),
        K={"type": int, "required": True, "help": "largest node count to check"},
        seed={"type": int, "default": 0},
    )
    add(
        "sweep",
        "tabulate predicted (and optionally measured) loads over a grid",
        _cmd_sweep, ("csv",), ("execute",),
        K={"type": int, "required": True},
        r={"type": _fraction_list, "required": True},
        c={"type": _fraction_list, "default": []},
        T={"type": int},
        seed={"type": int},
        resolution={"type": int, "help": "grid points per storage value (default 20)"},
    )
    add(
        "inspect",
        "serialize a scheme's placement and compute plan as JSON",
        _cmd_inspect, ("json",), ("cdc",),
        K={"type": int, "required": True},
        N={"type": int, "required": True},
        r={"type": int, "required": True},
        g={"type": int},
        T={"type": int},
    )
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
        rs = (Fraction(i, 20) for i in range(20, 20 * args.K))  # 1, 1.05, ... below K
        rows = ([r, analytics.c_star(args.K, r), r] for r in rs)
        _write_table(args, ["r", "c_star", "c_equals_r"], rows)
        return EXIT_OK
    if args.r is None:
        raise InvalidParameterError("tradeoff requires --r (or --cstar-sweep)")
    analytics.g_r(args.K, args.r)  # refuses a bad K or r as build_curve would
    resolution = 0 if args.resolution is None else args.resolution
    if resolution < 0:
        raise InvalidParameterError("resolution must be non-negative")
    if args.format == "json":  # JSON writes the curve points alone
        _refuse_ignored("with --format json", resolution=args.resolution)
    # at most floor(r) + 1 curve points, each segment with its samples, and
    # the end of the flat tail
    _check_size(args, (math.floor(args.r) + 1) * (resolution + 1) + 1, "rows")
    curve = analytics.build_curve(args.K, args.r)
    if args.format == "json":
        _write_json(args, analytics.curve_to_dict(curve))
    else:
        _write_table(args, ["c", "L", "segment_kind"], analytics.curve_rows(curve, resolution))
    return EXIT_OK


def _check_size(args, count: int, unit: str = "(file, node) pairs", budget=None) -> None:
    """Refuse, from counts alone, a request over budget, by default SIZE_BUDGET
    (file, node) pairs or output rows. Callers count N*K per scheme with K at
    least 1, so a K below 1 with a huge N is refused like any other."""
    budget = SIZE_BUDGET if budget is None else budget
    if count > budget:
        shown = analytics.int_text(count)
        raise InvalidParameterError(
            f"this {args.command} needs {shown} {unit}, over the budget of {budget}"
        )


def _check_digests(args, runs) -> None:
    """Refuse runs (K, N, r, T) over DIGEST_BUDGET 512-bit digest blocks, as the
    README counts them, each at the value size T it executes with; B is --B
    or T."""
    count, B = 0, getattr(args, "B", None)
    for K, N, r, T in runs:
        per_value, record = -(-T // 512), -(-N * (4 + -(-T // 8)) // 64)
        outputs = 2 * -(-(B or T) // 512) * (1 + record)
        count += max(K, 1) * ((math.ceil(r) + 1) * N * per_value + outputs)
    _check_size(args, count, "512-bit digest blocks", DIGEST_BUDGET)


def _basic_scheme(args, r: int, g: int | None) -> BasicScheme:
    """The coded scheme at integer storage r and coding parameter g (the cdc
    baseline when g is None), at --T or make_params' default T."""
    if g is None:
        return build_cdc_scheme(args.K, args.N, r, T=args.T)
    return build_basic_scheme(make_params(args.K, args.N, r, g, T=args.T))


def _run(plan, N: int, T: int, seed: int, B: int | None = None):
    """Execute plan on the seeded corpus of N files of 64 bits, with T-bit
    values and B-bit outputs; the report, and whether decoding verified and
    every measured load equals its prediction."""
    suite = engine.default_suite(T, B)  # refuses a bad T or B before the corpus is built
    report = engine.execute(plan, engine.generate_corpus(N, 64, seed), suite)
    return report, report.verification_passed and report.measured == LoadReport(**report.predicted)


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
    _check_digests(args, [(args.K, args.N, args.r, T)])
    report, passed = _run(plan, args.N, T, args.seed, args.B)
    _write_json(args, report.to_dict())
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_compare(args) -> int:
    gs = [*args.g, None] if args.cdc else args.g
    if not gs:
        raise InvalidParameterError("nothing to compare: give --g and/or --cdc")
    _check_size(args, len(gs) * args.N * max(args.K, 1))
    # every scheme is validated and built, and their runs counted, before any corpus
    schemes = [_basic_scheme(args, args.r, g) for g in gs]
    _check_digests(args, [(args.K, args.N, args.r, scheme.params.T) for scheme in schemes])
    rows = []
    all_ok = True
    for g, scheme in zip(gs, schemes):
        report, ok = _run(scheme, args.N, scheme.params.T, args.seed, args.B)
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
        all_ok &= ok
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
    grid = [make_params(K, N, r, g) for K, r, g, N in _verify_grid(args.K)]
    _check_digests(args, [(p.K, p.N, p.r, p.T) for p in grid])
    rows = []
    all_ok = True
    for p in grid:
        report, ok = _run(build_basic_scheme(p), p.N, p.T, args.seed)
        measured, predicted = report.measured, report.predicted
        c_ok = measured.computation_load == predicted["computation_load"]
        l_ok = measured.communication_load == predicted["communication_load"]
        all_ok &= ok
        # flags as "true"/"false" strings, which the JSON form has always printed
        flags = (c_ok, l_ok, report.verification_passed, ok)
        rows.append([p.K, p.r, p.g, p.N, *map(_csv_cell, flags)])
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
    points = []  # (r, c, predicted L, and with --execute the plan at its minimal corpus and T)
    for r in args.r:
        curve = analytics.build_curve(args.K, r)
        if args.c:
            c_values = args.c
        else:
            n = resolution
            c_values = [1 + (r - 1) * Fraction(i, n - 1) for i in range(n)]
        for c in c_values:
            plan = T = None
            if args.execute:
                plan = composer.plan_for_target(args.K, composer.minimal_files(args.K, r, c), r, c)
                T = composer.safe_iva_bits(plan) if args.T is None else args.T
            points.append((r, c, analytics.query_load(curve, c), plan, T))
    runs = [(args.K, plan.N, r, T) for r, _, _, plan, T in points if plan]
    _check_size(args, sum(N for _, N, _, _ in runs) * max(args.K, 1))
    _check_digests(args, runs)
    rows = []
    all_ok = True
    for r, c, predicted, plan, T in points:
        measured = ""
        verified = ""
        if plan:
            report, ok = _run(plan, plan.N, T, seed)
            measured = report.measured.communication_load
            verified = report.verification_passed
            all_ok &= ok and measured == predicted
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
