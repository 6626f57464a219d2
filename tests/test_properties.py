"""Properties over generated inputs: executed plans, CLI argv, bit strings
and decoding of the coded exchange.

Every (K, r, c) target on the grid below is planned at its smallest
admissible corpus and executed; the measured loads must equal the curve and
the closed-form prediction exactly, whatever route the planner takes.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random

from bitops import cut, join, xor
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d3c.analytics import build_curve, query_load
from d3c.bits import BitString
from d3c.cli import main
from d3c.combinatorics import BatchIndex, binomial, enum_pi
from d3c.composer import minimal_files, plan_for_target, safe_iva_bits
from d3c.engine import default_suite, execute, generate_corpus
from d3c.scheme import IvaId, build_basic_scheme, build_cdc_scheme, make_params
from d3c.shuffle import build_signals, decode_node, run_shuffle

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
    # one file read per planned map evaluation, in every file group
    assert report.audit["file_reads"] == measured.computation_load * N * K, plan.route
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


@st.composite
def any_plans(draw):
    """("d3c" | "cdc", K, r, g, eta): a basic scheme with 1 <= g <= r <= K <= 5
    (g = r for cdc) and eta files per batch; or ("composite", K, r, c), a
    grid target at K <= 5 on at most 600 files."""
    kind = draw(st.sampled_from(["d3c", "cdc", "composite"]))
    if kind == "composite":
        return ("composite", *draw(grid_targets().filter(
            lambda t: t[0] <= 5 and minimal_files(*t) <= 600
        )))
    K = draw(st.integers(2, 5))
    r = draw(st.integers(1, K))
    g = r if kind == "cdc" else draw(st.integers(1, r))
    return kind, K, r, g, draw(st.integers(1, 2))


def _plan_of(spec):
    """The plan of an ``any_plans`` spec, its value size, and the basic
    schemes it runs as (kind, r, g, files): one per composite group."""
    if spec[0] == "composite":
        _, K, r, c = spec
        plan = plan_for_target(K, minimal_files(K, r, c), r, c)
        return plan, safe_iva_bits(plan), [("d3c", sp.r, sp.g, sp.file_count) for sp in plan.groups]
    kind, K, r, g, eta = spec
    N, T = eta * binomial(K, r) * binomial(r, g), 2 * g // math.gcd(g, eta)  # g divides eta * T
    if kind == "cdc":
        return build_cdc_scheme(K, N, r, F=8, T=T), T, [(kind, r, g, N)]
    return build_basic_scheme(make_params(K, N, r, g, F=8, T=T)), T, [(kind, r, g, N)]


@settings(max_examples=100, deadline=None, database=None)
@given(any_plans())
@example(("d3c", 3, 2, 2, 1))
@example(("cdc", 4, 4, 4, 1))  # r = K: nothing is sent
@example(("composite", 4, Fraction(2), Fraction(1))).via("corner")
@example(("composite", 2, Fraction(3, 2), Fraction(1))).via("e1")  # a group with r = K
@example(("composite", 3, Fraction(2), Fraction(6, 5))).via("e2")
@example(("composite", 4, Fraction(9, 4), Fraction(3, 2))).via("e3")
@example(("composite", 3, Fraction(2), Fraction(8, 5))).via("clamp")
def test_report_counts_meet_their_closed_forms(spec):
    plan, T, schemes = _plan_of(spec)
    K = spec[1]
    N = sum(files for *_, files in schemes)
    report = execute(plan, generate_corpus(N, 8, 0), default_suite(T))
    per_node = report.per_node
    want_values = want_bits = want_stored = want_signals = want_lookups = want_overhead = 0
    for kind, r, g, files in schemes:
        c = r if kind == "cdc" else Fraction(r, K) + (1 - Fraction(r, K)) * g
        signals = math.comb(K, r + 1) * math.comb(r + 1, g + 1) * (g + 1)  # 0 when r = K
        want_values += c * files * K
        want_bits += (1 - Fraction(r, K)) / g * files * K * T
        want_stored += r * files
        want_signals += signals
        want_lookups += K * g * math.comb(K - 1, r) * math.comb(r, g)
        want_overhead += signals * max(1, (K - 1).bit_length()) * (r + g + 3)
    assert sum(s.computed_values for s in per_node) == report.audit["file_reads"] == want_values
    assert sum(s.sent_bits for s in per_node) == want_bits
    assert sum(s.stored_files for s in per_node) == want_stored
    assert sum(s.sent_signals for s in per_node) == want_signals
    assert report.audit["signal_reads"] == want_lookups
    assert report.overhead_bits == want_overhead
    assert report.verification_passed


# ------------------------------------------------------------ CLI exit codes

# p/0 is not a rational number; p/4 covers the planner's quarter grid; the
# last three spell more than 4300 digits, which the CLI refuses unexpanded
rationals = st.one_of(
    st.builds("{}/{}".format, st.integers(-1, 13), st.sampled_from([1, 2, 4, 0])),
    st.sampled_from(["1e5000", "1e-5000", "1e20000000"]),
)
small_ints = st.integers(-1, 6)


def _flag(name, values):
    """``--name value`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}", str(v)]))


def _switch(name):
    return st.sampled_from([[], [f"--{name}"]])


@st.composite
def cli_argv(draw):
    """argv for one of the six subcommands: small values, invalid ones included."""
    command = draw(st.sampled_from(["tradeoff", "simulate", "compare", "verify", "sweep", "inspect"]))
    execute = command == "sweep" and draw(st.booleans())
    # an executed sweep at K <= 3 plans at most 456 files per point, and
    # verify checks every scheme up to its --K; counts past the size budget
    # (verify from --K 11 on, N * K over 2^20, a --resolution of 2^20 rows
    # or more) are refused before any build
    top = 3 if execute else 4 if command == "verify" else 6
    nodes = st.integers(-1, top)
    if command == "verify":
        nodes = st.one_of(nodes, st.integers(11, 10**6))
    argv = [command, "--K", str(draw(nodes))]
    if command in ("simulate", "compare", "inspect"):
        argv += ["--N", str(draw(st.one_of(st.integers(-1, 120), st.integers(2**20 + 1, 2**40))))]
    resolutions = st.one_of(small_ints, st.integers(2**20, 2**40))
    if command == "tradeoff":
        argv += draw(st.one_of(_flag("r", rationals), st.just(["--cstar-sweep"])))
        argv += draw(_flag("resolution", resolutions))
    elif command == "simulate":
        argv += ["--r", draw(rationals)] + draw(_flag("c", rationals)) + draw(_flag("g", small_ints))
        argv += draw(_flag("B", st.integers(-8, 64)))
    elif command == "compare":
        argv += ["--r", str(draw(small_ints))]
        argv += draw(_flag("g", st.lists(small_ints.map(str), min_size=1, max_size=2).map(",".join)))
    elif command == "sweep":
        lists = st.lists(rationals, min_size=1, max_size=2).map(",".join)
        argv += ["--r", draw(lists)] + draw(_flag("c", lists)) + draw(_flag("resolution", resolutions))
        argv += ["--execute"] if execute else []
    elif command == "inspect":
        argv += ["--r", str(draw(small_ints))] + draw(_flag("g", small_ints))
    if command in ("simulate", "compare", "inspect"):
        argv += draw(_switch("cdc"))
    if command in ("simulate", "compare", "sweep", "inspect"):
        argv += draw(_flag("T", st.integers(-8, 64)))
    return argv + draw(_flag("format", st.sampled_from(["csv", "json", "xml"])))


@settings(max_examples=150, deadline=None, database=None)
@given(cli_argv())
@example(["inspect", "--K", "70", "--N", "6", "--r", "35", "--g", "1"])
@example(["simulate", "--K", "100", "--N", "6", "--r", "50", "--g", "1"])
@example(["tradeoff", "--cstar-sweep", "--K", "1"])
@example(["tradeoff", "--K", "4", "--r", "2", "--resolution", str(2**40)])
@example(["sweep", "--K", "4", "--r", "2", "--format", "json"])
@example(["simulate", "--K", "3", "--N", "6", "--r", "2", "--g", "2", "--format", "csv"])
def test_cli_always_ends_in_an_exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3}


# ---------------------------------------------------- bit strings, decoding

@st.composite
def bit_strings(draw, length=st.integers(0, 80)):
    n = draw(length)
    return BitString(draw(st.integers(0, 2**n - 1)), n)


@settings(max_examples=200, deadline=None, database=None)
@given(bit_strings(), st.data())
def test_bit_string_round_trips(x, data):
    n = x.length
    at = data.draw(st.integers(0, n))
    head, tail = cut(x, 0, at), cut(x, at, n - at)
    assert join([head, tail]) == x
    assert len(x.to_bytes()) == (n + 7) // 8
    assert int.from_bytes(x.to_bytes(), "big") >> (-n % 8) == x.value
    y = data.draw(bit_strings(st.just(n)))
    assert xor(xor(x, y), y) == x
    assert xor(x, y) == xor(y, x)


@st.composite
def exchanges(draw):
    """(K, r, g, eta, T, seed): K <= 5, every 1 <= g <= r <= K, eta <= 6 and
    T a multiple of g / gcd(g, eta), so g divides eta * T."""
    K = draw(st.integers(2, 5))
    r = draw(st.integers(1, K))
    g = draw(st.integers(1, r))
    eta = draw(st.integers(1, 6))
    step = g // math.gcd(g, eta)
    T = step * draw(st.integers(1, 24 // step))
    return K, r, g, eta, T, draw(st.integers(0, 2**32))


def _random_exchange(case):
    """The scheme of ``case`` and per-node stores of its planned values,
    drawn from one random value table, and the table."""
    K, r, g, eta, T, seed = case
    N = eta * binomial(K, r) * binomial(r, g)
    scheme = build_basic_scheme(make_params(K, N, r, g, T=T))
    rng = Random(seed)
    table = {
        IvaId(q, n): rng.getrandbits(T)
        for q in range(1, K + 1)
        for n in range(1, N + 1)
    }
    computed = {
        k: {iva: table[iva] for iva in scheme.compute_own[k] + scheme.compute_coded[k]}
        for k in scheme.storage
    }
    return scheme, computed, table


@settings(max_examples=150, deadline=None, database=None)
@given(exchanges())
@example((4, 3, 3, 2, 3, 0))  # 2-bit segments of 3-bit values straddle value edges
@example((5, 4, 4, 3, 4, 1))  # 3-bit segments of 4-bit values
@example((5, 3, 3, 5, 24, 2))  # 40-bit segments start and end inside 24-bit values
def test_decode_recovers_every_value(case):
    scheme, computed, table = _random_exchange(case)
    delivered, _ = run_shuffle(scheme, computed)
    for k in scheme.storage:
        values = decode_node(k, scheme, computed[k], delivered[k])
        assert values == {n: table[IvaId(k, n)] for n in range(1, scheme.params.N + 1)}, k


@settings(max_examples=150, deadline=None, database=None)
@given(exchanges().filter(lambda case: case[1] < case[0]))
@example((4, 2, 1, 2, 5, 3))  # g = 1: each payload is one whole block
@example((4, 3, 3, 2, 3, 0))  # 2-bit cuts of 3-bit values straddle value edges
@example((5, 3, 2, 3, 2, 7))  # 3-bit cuts of 2-bit values
@example((5, 3, 3, 5, 24, 2))  # 40-bit cuts start and end inside 24-bit values
def test_signal_payloads_follow_the_paper_rule(case):
    # reference: join the block member i requests, take the sender's 1/g of
    # it, and XOR over the other members of j
    K, r, g, _, T, _ = case
    scheme, computed, _ = _random_exchange(case)
    want = []
    for group in enum_pi(K, r, g):
        for sender in group.j:
            acc = None
            for i in group.j:
                if i == sender:
                    continue
                batch = BatchIndex(
                    tuple(x for x in group.i if x != i), tuple(x for x in group.j if x != i)
                )
                block = join(
                    BitString(computed[sender][IvaId(i, n)], T) for n in scheme.batches[batch]
                )
                seg = block.length // g
                piece = cut(block, batch.t.index(sender) * seg, seg)
                acc = piece if acc is None else xor(acc, piece)
            want.append((sender, group, acc))
    got = [(s.sender, s.group, s.payload) for s in build_signals(scheme, computed)]
    assert got == want
