"""End-to-end simulated runs: corpus, map, coded shuffle, reduce, verify.

Nodes are logical entities in one process. Isolation is enforced by
construction: every file or signal access goes through a per-node view that
admits only the node's placed files and the signals actually delivered to
it. Audit mode additionally records each access so a run can prove that no
information flowed outside the scheme's plan.

All randomness comes from one explicit seed; reports contain no wall-clock
fields, so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from random import Random
from typing import IO, Callable, Sequence

from .analytics import basic_communication, basic_computation
from .bits import BitString
from .composer import CompositePlan, safe_iva_bits
from .errors import ExecutionError, InvalidParameterError
from .scheme import (
    BasicScheme,
    IvaId,
    LoadReport,
    SchemeParams,
    build_basic_scheme,
)
from .shuffle import decode_node, run_shuffle, write_signal_trace


@dataclass(frozen=True)
class Corpus:
    """N pseudorandom files of F bits each, reproducible from the seed."""

    files: tuple[bytes, ...]
    F: int
    seed: int

    @property
    def N(self) -> int:
        return len(self.files)


def generate_corpus(N: int, F: int, seed: int) -> Corpus:
    """Deterministic corpus; F must be byte-aligned."""
    if N < 1:
        raise InvalidParameterError(f"need at least one file, got N={N}")
    if F < 8 or F % 8:
        raise InvalidParameterError(f"file size must be a positive multiple of 8 bits, got {F}")
    rng = Random(seed)
    nbytes = F // 8
    return Corpus(tuple(rng.randbytes(nbytes) for _ in range(N)), F, seed)


@dataclass(frozen=True)
class FunctionSuite:
    """Map/reduce pair with fixed value sizes.

    ``map_fn(target, file_id, file_bytes)`` yields the T-bit intermediate
    value; ``reduce_fn(target, values)`` consumes the N values in ascending
    file order and yields the B-bit output.
    """

    map_fn: Callable[[int, int, bytes], BitString]
    reduce_fn: Callable[[int, Sequence[BitString]], BitString]
    iva_bits: int
    output_bits: int


# Key of the first digest block (counter 0) of each domain the suite uses.
_FIRST_KEY = {domain: domain + bytes(8) for domain in (b"map", b"reduce")}


def _digest_bits(domain: bytes, payload: bytes, nbits: int) -> BitString:
    """Keyed digest stream truncated to nbits (counter mode for long outputs).

    Block c is keyed with ``domain`` followed by c as 8 big-endian bytes. Up
    to 512 bits, block 0 alone is the stream: one call, then a shift.
    """
    if nbits <= 512:
        h = hashlib.blake2b(payload, digest_size=64, key=_FIRST_KEY[domain])
        return BitString._of(int.from_bytes(h.digest(), "big") >> (512 - nbits), nbits)
    nbytes = (nbits + 7) // 8
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        h = hashlib.blake2b(payload, digest_size=64, key=domain + counter.to_bytes(8, "big"))
        out += h.digest()
        counter += 1
    return BitString.from_bytes(bytes(out[:nbytes]), nbits)


def default_suite(T: int, B: int | None = None) -> FunctionSuite:
    """Keyed-digest suite: deterministic, size-exact, order-sensitive."""
    if B is None:
        B = T
    if T < 1 or B < 1:
        raise InvalidParameterError("value sizes must be positive")

    def map_fn(target: int, file_id: int, data: bytes) -> BitString:
        key = target.to_bytes(4, "big") + file_id.to_bytes(8, "big")
        return _digest_bits(b"map", key + data, T)

    def reduce_fn(target: int, values: Sequence[BitString]) -> BitString:
        blob = bytearray(target.to_bytes(4, "big"))
        for v in values:
            blob += v.length.to_bytes(4, "big") + v.to_bytes()
        return _digest_bits(b"reduce", bytes(blob), B)

    return FunctionSuite(map_fn, reduce_fn, T, B)


def oracle(corpus: Corpus, suite: FunctionSuite, K: int) -> list[BitString]:
    """Centralized ground truth: all N*K values, then the K reduce outputs."""
    outputs = []
    for k in range(1, K + 1):
        values = [
            suite.map_fn(k, n, corpus.files[n - 1]) for n in range(1, corpus.N + 1)
        ]
        outputs.append(suite.reduce_fn(k, values))
    return outputs


@dataclass
class _Auditor:
    file_reads: int = 0
    signal_reads: int = 0
    violations: list[dict] = field(default_factory=list)

    def file_access(self, node: int, file_id: int, allowed: bool) -> None:
        if allowed:
            self.file_reads += 1
        else:
            self.violations.append({"node": node, "kind": "file", "id": file_id})

    def signal_access(self, node: int, key, allowed: bool) -> None:
        if allowed:
            self.signal_reads += 1
        else:
            self.violations.append({"node": node, "kind": "signal", "id": repr(key)})


class _NodeFiles:
    """Per-node gate in front of the corpus: only placed files are readable."""

    __slots__ = ("node", "corpus", "allowed", "auditor")

    def __init__(self, node: int, corpus: Corpus, allowed: set[int], auditor: _Auditor):
        self.node = node
        self.corpus = corpus
        self.allowed = allowed
        self.auditor = auditor

    def read(self, file_id: int) -> bytes:
        ok = file_id in self.allowed
        self.auditor.file_access(self.node, file_id, ok)
        if not ok:
            raise ExecutionError(
                f"node {self.node} attempted to read file {file_id} outside its storage"
            )
        return self.corpus.files[file_id - 1]


class _NodeSignals:
    """Per-node view of the delivered signals that audits every lookup."""

    __slots__ = ("node", "delivered", "auditor")

    def __init__(self, node: int, delivered: dict, auditor: _Auditor):
        self.node = node
        self.delivered = delivered
        self.auditor = auditor

    def get(self, key, default=None):
        found = self.delivered.get(key, default)
        self.auditor.signal_access(self.node, key, found is not None)
        return found


@dataclass(frozen=True)
class PerNodeStats:
    node: int
    stored_files: int
    computed_values: int
    sent_signals: int
    sent_bits: int
    received_signals: int
    received_bits: int


@dataclass(frozen=True)
class ExecutionReport:
    """Everything one run produced, deterministic given (plan, seed, suite)."""

    K: int
    N: int
    T: int
    B: int
    seed: int
    plan: dict
    measured: LoadReport
    predicted: dict[str, Fraction]
    per_node: tuple[PerNodeStats, ...]
    outputs: tuple[str, ...]
    verification_passed: bool
    first_mismatch: dict | None
    overhead_bits: int
    audit: dict | None

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "N": self.N,
            "T": self.T,
            "B": self.B,
            "seed": self.seed,
            "plan": self.plan,
            "measured": self.measured.to_dict(),
            "predicted": LoadReport(**self.predicted).to_dict(),
            "per_node": [asdict(s) for s in self.per_node],
            "outputs": list(self.outputs),
            "verification": {
                "passed": self.verification_passed,
                "first_mismatch": self.first_mismatch,
            },
            "overhead_bits": self.overhead_bits,
            "audit": self.audit,
        }


def _bind(
    plan: BasicScheme | CompositePlan, F: int, suite: FunctionSuite | None
) -> tuple[dict, list[tuple[BasicScheme, int]]]:
    """The report's plan summary and the (scheme, file offset) groups to run.

    A basic scheme is one group at offset 0; a composite plan's groups are
    built with the corpus file size and the suite's value size (or the
    plan's safe size when no suite is given).
    """
    if isinstance(plan, BasicScheme):
        return {"type": plan.kind, "r": plan.params.r, "g": plan.params.g}, [(plan, 0)]
    T = suite.iva_bits if suite else safe_iva_bits(plan)
    summary = {
        "type": "composite",
        "route": plan.route,
        "target_r": str(plan.predicted_r),
        "target_c": str(plan.target_c),
        "groups": [
            {
                "fraction": str(sp.fraction),
                "r": sp.r,
                "g": sp.g,
                "first_file": sp.first_file,
                "file_count": sp.file_count,
            }
            for sp in plan.groups
        ],
    }
    groups = []
    for sp in plan.groups:
        params = SchemeParams(K=plan.K, N=sp.file_count, F=F, T=T, r=sp.r, g=sp.g)
        groups.append((build_basic_scheme(params), sp.first_file - 1))
    return summary, groups


def _predicted_loads(groups: list[tuple[BasicScheme, int]], N: int) -> dict[str, Fraction]:
    """File-weighted closed-form loads of the groups; a cdc group computes
    every value of its stored files, so its computation load is r."""
    r = c = L = Fraction(0)
    for scheme, _ in groups:
        p = scheme.params
        weight = Fraction(p.N, N)
        r += weight * p.r
        c += weight * (p.r if scheme.kind == "cdc" else basic_computation(p.K, p.r, p.g))
        L += weight * basic_communication(p.K, p.r, p.g)
    return {"storage_space": r, "computation_load": c, "communication_load": L}


def _signal_overhead_bits(K: int, group_i: int, group_j: int) -> int:
    """Bits to address one signal's metadata: sender id plus both member lists.

    Excluded from the communication load; reported for transparency.
    """
    per_id = max(1, math.ceil(math.log2(K)))
    return per_id * (1 + group_i + group_j)


def execute(
    plan: BasicScheme | CompositePlan,
    corpus: Corpus,
    suite: FunctionSuite | None = None,
    *,
    audit: bool = False,
    trace: IO[str] | None = None,
) -> ExecutionReport:
    """Run map, shuffle, and reduce under ``plan`` and verify against the
    centralized oracle. Raises only on plan/corpus mismatch or internal
    inconsistency; a wrong output is reported, not raised."""
    summary, groups = _bind(plan, corpus.F, suite)
    first = groups[0][0].params
    K, F, T = first.K, first.F, first.T
    N_total = sum(scheme.params.N for scheme, _ in groups)
    if corpus.N != N_total:
        raise InvalidParameterError(
            f"corpus has {corpus.N} files but the plan needs {N_total}"
        )
    if corpus.F != F:
        raise InvalidParameterError(f"corpus file size {corpus.F} != plan file size {F}")
    if suite is None:
        suite = default_suite(T)
    if suite.iva_bits != T:
        raise InvalidParameterError(
            f"suite produces {suite.iva_bits}-bit values but the plan assumes {T}"
        )

    nodes = range(1, K + 1)
    auditor = _Auditor()

    # per-node allowed file sets across all groups
    allowed: dict[int, set[int]] = {k: set() for k in nodes}
    for scheme, offset in groups:
        for k in nodes:
            allowed[k].update(offset + n for n in scheme.storage[k])
    file_views = {k: _NodeFiles(k, corpus, allowed[k], auditor) for k in nodes}

    total_bits = 0
    overhead_bits = 0
    computed_values = {k: 0 for k in nodes}
    sent_signals = {k: 0 for k in nodes}
    sent_bits = {k: 0 for k in nodes}
    collected: dict[int, dict[int, BitString]] = {k: {} for k in nodes}

    for scheme, offset in groups:
        # keyed by plain (target, file) tuples, which hash and compare equal
        # to IvaId, so IvaId lookups still find every value
        computed: dict[int, dict[IvaId, BitString]] = {k: {} for k in nodes}
        for batch, files in scheme.batches.items():
            for k in batch.s:
                store, view = computed[k], file_views[k]
                for q in scheme.targets(k, batch):
                    for n in files:
                        data = view.read(offset + n)
                        store[q, n] = suite.map_fn(q, offset + n, data)
        for k in nodes:
            computed_values[k] += len(computed[k])

        delivered, bits = run_shuffle(scheme, computed)
        total_bits += bits
        # every node receives every signal but its own, so nodes 1 and 2
        # together hold them all: each misses only what the other holds
        all_signals = {**delivered[1], **delivered[2]}
        for (sender, group), signal in all_signals.items():
            sent_signals[sender] += 1
            sent_bits[sender] += signal.bit_length
            overhead_bits += _signal_overhead_bits(K, len(group.i), len(group.j))
        if trace is not None:
            write_signal_trace(
                sorted(all_signals.values(), key=lambda s: (s.group, s.sender)), trace
            )

        for k in nodes:
            signal_view = _NodeSignals(k, delivered[k], auditor)
            try:
                values = decode_node(k, scheme, computed[k], signal_view)
            except Exception as err:
                raise ExecutionError(f"decode failed at node {k}: {err}") from err
            for local_n, value in values.items():
                collected[k][offset + local_n] = value

    outputs = []
    for k in nodes:
        values = [collected[k][n] for n in range(1, N_total + 1)]
        outputs.append(suite.reduce_fn(k, values))

    truth = oracle(corpus, suite, K)
    first_mismatch = None
    for k, (got, want) in enumerate(zip(outputs, truth), start=1):
        if got != want:
            first_mismatch = {
                "node": k,
                "expected": want.to_bytes().hex(),
                "actual": got.to_bytes().hex(),
            }
            break

    stored_total = sum(len(allowed[k]) for k in nodes)
    measured = LoadReport(
        storage_space=Fraction(stored_total, N_total),
        computation_load=Fraction(sum(computed_values.values()), N_total * K),
        communication_load=Fraction(total_bits, N_total * K * T),
    )
    # every signal is broadcast to the other K - 1 nodes, so each node
    # receives all signals but its own
    all_sent, all_sent_bits = sum(sent_signals.values()), sum(sent_bits.values())
    per_node = tuple(
        PerNodeStats(
            node=k,
            stored_files=len(allowed[k]),
            computed_values=computed_values[k],
            sent_signals=sent_signals[k],
            sent_bits=sent_bits[k],
            received_signals=all_sent - sent_signals[k],
            received_bits=all_sent_bits - sent_bits[k],
        )
        for k in nodes
    )
    audit_summary = None
    if audit:
        audit_summary = {
            "file_reads": auditor.file_reads,
            "signal_reads": auditor.signal_reads,
            "violations": auditor.violations,
        }
    return ExecutionReport(
        K=K,
        N=N_total,
        T=T,
        B=suite.output_bits,
        seed=corpus.seed,
        plan=summary,
        measured=measured,
        predicted=_predicted_loads(groups, N_total),
        per_node=per_node,
        outputs=tuple(out.to_bytes().hex() for out in outputs),
        verification_passed=first_mismatch is None,
        first_mismatch=first_mismatch,
        overhead_bits=overhead_bits,
        audit=audit_summary,
    )
