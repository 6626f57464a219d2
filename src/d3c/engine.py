"""End-to-end simulated runs: corpus, map, coded shuffle, reduce, verify.

Nodes are logical entities in one process; a large run on two CPUs forks
its oracle into a child. Each node keeps the values it maps for other
targets as whole blocks, one int per (target, batch) keyed by (target,
first file of the batch), its values joined in file order with the first
on top, so the exchange cuts each segment with one shift. Its own
function's values, and those it decodes, go straight into its reduce input.
Each scheme's signals are built once into one broadcast store keyed by
(sender, group), which every node decodes from.
Each node has one record (``_Node``): the gate that admits only its placed
files and the others' signals, and its counts, from which the report is
read. An access outside the plan ends the run with ``ExecutionError``, so a
run that finishes had none. Every plan runs on the corpus's own file ids: a
composite group's placement numbers its files from its first file id.

All randomness comes from one explicit seed; reports contain no wall-clock
fields, so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import gc
import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from random import Random
from typing import IO, Callable, Iterable, Iterator, Sequence

from .analytics import basic_communication, basic_computation
from .bits import BitString
from .combinatorics import group_divisor
from .composer import CompositePlan, safe_iva_bits
from .errors import ExecutionError, InvalidParameterError
from .scheme import BasicScheme, LoadReport, SchemeParams, _placement
from .shuffle import _block_segment, _decode, _encode, write_signal_trace


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
    # Random.randbytes(n) is getrandbits(8 n).to_bytes(n, "little"), minus a frame per file
    getrandbits, nbytes = Random(seed).getrandbits, F // 8
    return Corpus(tuple(getrandbits(F).to_bytes(nbytes, "little") for _ in range(N)), F, seed)


@dataclass(frozen=True)
class FunctionSuite:
    """Map/reduce pair with fixed value sizes.

    ``map_fn(target, file_id, file_bytes)`` yields the intermediate value as
    an int below ``2**iva_bits``; ``reduce_fn(target, values)`` consumes the
    N value ints in ascending file order and yields the B-bit output; both
    must be pure, as a forked oracle sees no state that the run's calls
    change. ``execute`` checks every reduce and oracle output against
    ``output_bits`` and raises ``ExecutionError`` on another width.
    """

    map_fn: Callable[[int, int, bytes], int]
    reduce_fn: Callable[[int, Sequence[int]], BitString]
    iva_bits: int
    output_bits: int


def _keyed_digest(domain: bytes, nbits: int, prefix: bytes = b"") -> Callable[[bytes], int]:
    """``payload ->`` the keyed digest stream of ``prefix + payload`` cut to
    its first nbits bits (counter mode), as an int.

    Block c is keyed with ``domain`` followed by c as 8 big-endian bytes, and
    the stream is blocks 0, 1, ... joined. Each block's keyed state is built
    here, once, and absorbs its key block and the prefix; every call feeds
    the payload to a copy of each, as a fresh keyed ``blake2b`` would get it.
    Up to 512 bits the stream is one block, and a call digests one copy and
    shifts it, with no list and no join.
    """
    blocks = -(-nbits // 512)
    states = [
        hashlib.blake2b(prefix, digest_size=64, key=domain + c.to_bytes(8, "big"))
        for c in range(blocks)
    ]
    cut = blocks * 512 - nbits
    from_bytes = int.from_bytes  # bound once: a lookup per call is a measurable share

    if blocks == 1:
        copy = states[0].copy

        def one_block(payload: bytes) -> int:
            block = copy()
            block.update(payload)
            return from_bytes(block.digest(), "big") >> cut

        return one_block

    def digest(payload: bytes) -> int:
        stream = []
        for state in states:
            block = state.copy()
            block.update(payload)
            stream.append(block.digest())
        return from_bytes(b"".join(stream), "big") >> cut

    return digest


def default_suite(T: int, B: int | None = None) -> FunctionSuite:
    """Keyed-digest suite: deterministic, size-exact, order-sensitive.

    A value is ``_keyed_digest(b"map", T)`` of target(4) + file_id(8) + data
    and an output ``_keyed_digest(b"reduce", B)`` of the values' blob, built
    once per suite. The map keeps, per target, block states that have
    already absorbed the key block and the 4-byte target, built on the
    target's first call, so a call digests only the file id and the file.
    """
    if B is None:
        B = T
    if T < 1 or B < 1:
        raise InvalidParameterError("value sizes must be positive")
    by_target: dict[int, Callable[[bytes], int]] = {}

    def map_fn(target: int, file_id: int, data: bytes) -> int:
        digest = by_target.get(target)
        if digest is None:
            digest = by_target[target] = _keyed_digest(b"map", T, target.to_bytes(4, "big"))
        return digest(file_id.to_bytes(8, "big") + data)

    # a value enters the blob as its 4-byte bit length, then its bits padded
    # to whole bytes: one (4 + nbytes)-byte int with the length on top
    pad, nbytes = -T % 8, (T + 7) // 8
    head, width = T << 8 * nbytes, 4 + nbytes
    reduce_digest = _keyed_digest(b"reduce", B)

    def reduce_fn(target: int, values: Sequence[int]) -> BitString:
        if max(values, default=0) >> T:  # it would spill into the length bytes
            raise OverflowError(f"a value of target {target} is not in [0, 2**{T})")
        blob = bytearray(target.to_bytes(4, "big"))
        for v in values:
            blob += (head | v << pad).to_bytes(width, "big")
        return BitString(reduce_digest(blob), B)

    return FunctionSuite(map_fn, reduce_fn, T, B)


def oracle(corpus: Corpus, suite: FunctionSuite, K: int) -> list[BitString]:
    """Centralized ground truth: all N*K values, then the K reduce outputs."""
    map_fn, files = suite.map_fn, corpus.files
    outputs = []
    for k in range(1, K + 1):
        values = [map_fn(k, n, data) for n, data in enumerate(files, start=1)]
        outputs.append(suite.reduce_fn(k, values))
    return outputs


_FORK_MIN_VALUES = 2**17  # N*K from which a forked oracle was measured to save time (CHANGES.md)


def _one_thread() -> bool:  # the kernel's task list also shows native threads
    tasks = "/proc/self/task"
    return len(os.listdir(tasks)) == 1 if os.path.isdir(tasks) else threading.active_count() == 1


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Cyclic GC off for the block: a run makes no cycles, and a pass re-walks its K x N reduce inputs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _oracle_beside(corpus: Corpus, suite: FunctionSuite, K: int) -> Iterator[list[BitString]]:
    """Yield a list holding ``oracle(corpus, suite, K)`` once the block ends.
    A large run in a one-thread process with two CPUs computes it meanwhile
    in a child forked here, any other at the block's end; no child outlives it."""
    want: list[BitString] = []
    read_end = pid = None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if corpus.N * K >= _FORK_MIN_VALUES and cpus >= 2 and hasattr(os, "fork") and _one_thread():
        try:
            read_end, write_end = os.pipe()
            pid = os.fork()
        except OSError:  # no pipe or no child: the oracle runs in-process
            if read_end is not None:
                os.close(read_end), os.close(write_end)
    if pid is None:
        yield want
        want += oracle(corpus, suite, K)
        return
    if pid == 0:  # the child: it never returns into the caller nor flushes what it inherited
        status = 1
        try:
            with open(write_end, "wb") as pipe:
                try:
                    outputs = oracle(corpus, suite, K)
                except Exception as exc:  # quoted by the parent's ExecutionError
                    pipe.write(b"%a" % (exc,))
                    raise
                pipe.write(b"".join(b"%x %x\n" % (o.length, o.value) for o in outputs))
            status = 0
        finally:
            os._exit(status)
    try:  # from the fork on, whatever the parent raises kills and reaps the child
        os.close(write_end)  # the child's copy alone holds the pipe open
        yield want
        # to EOF before reaping, so a full pipe cannot block the child
        data = b"".join(iter(lambda: os.read(read_end, 1 << 16), b""))
        status, pid = os.waitpid(pid, 0)[1], None  # reaped
        if status:
            code, why = os.waitstatus_to_exitcode(status), data.decode(errors="replace")
            raise ExecutionError(f"the oracle's child process exited with status {code}: {why}")
        want += [BitString(int(v, 16), int(n, 16)) for n, v in map(bytes.split, data.splitlines())]
    finally:
        os.close(read_end)
        if pid is not None:  # the run failed before it needed the oracle
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


class _Node:
    """One node's record of a run: the gate to its placed files (a refused read
    raises and is not counted) and to the scheme's broadcast store, shared by
    every node (``get`` refuses the node its own signals and counts each lookup
    that finds one), and its counts. ``read`` gates a file once for the
    ``uses`` map evaluations it feeds and counts each, so file reads = map
    evaluations. ``placed`` holds a byte per corpus file id, 1 where it is
    stored; ``stored`` counts them."""

    __slots__ = ("k", "files", "placed", "stored", "signals",
                 "file_reads", "signal_reads", "sent_signals", "sent_bits")

    def __init__(self, k: int, corpus: Corpus, stored: Iterable[int]):
        self.k, self.files, self.signals, self.placed = k, corpus.files, {}, bytearray(corpus.N + 1)
        for n in stored:
            self.placed[n] = 1
        self.stored = self.placed.count(1)
        self.file_reads = self.signal_reads = self.sent_signals = self.sent_bits = 0

    def read(self, file_id: int, uses: int = 1) -> bytes:
        if not (0 < file_id < len(self.placed) and self.placed[file_id]):
            raise ExecutionError(
                f"node {self.k} attempted to read file {file_id} outside its storage"
            )
        self.file_reads += uses
        return self.files[file_id - 1]

    def get(self, key, default=None):
        found = None if key[0] == self.k else self.signals.get(key)  # never its own signal
        if found is None:
            return default
        self.signal_reads += 1
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
    audit: dict

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


def _bind(plan: BasicScheme | CompositePlan, F: int, T: int) -> tuple[dict, list[BasicScheme]]:
    """The report's plan summary and the schemes to run, on corpus file ids.

    A basic scheme runs as it is. Each group of a composite plan is built
    with the corpus file size F and the suite's value size T, its placement
    numbering the group's own files of the corpus from its first file id.
    """
    if isinstance(plan, BasicScheme):
        return {"type": plan.kind, "r": plan.params.r, "g": plan.params.g}, [plan]
    summary = {
        "type": "composite",
        "route": plan.route,
        "target_r": str(plan.predicted_r),
        "target_c": str(plan.target_c),
        "groups": [{**asdict(sp), "fraction": str(sp.fraction)} for sp in plan.groups],
    }
    schemes = []
    for sp in plan.groups:
        eta = sp.file_count // group_divisor(plan.K, sp.r, sp.g)
        if eta * T % sp.g:  # named here with the T that fits every group
            raise InvalidParameterError(
                f"segment divisibility violated: g={sp.g} must divide eta*T = {eta}*{T}; "
                f"the smallest whole-byte T for this plan is {safe_iva_bits(plan)}"
            )
        params = SchemeParams(K=plan.K, N=sp.file_count, F=F, T=T, r=sp.r, g=sp.g)
        schemes.append(BasicScheme(params, _placement(params, sp.first_file)))
    return summary, schemes


def _predicted_loads(schemes: list[BasicScheme], N: int) -> dict[str, Fraction]:
    """File-weighted closed-form loads of the schemes; a cdc scheme computes
    every value of its stored files, so its computation load is r."""
    r = c = L = Fraction(0)
    for scheme in schemes:
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
    per_id = max(1, (K - 1).bit_length())  # ceil(log2 K), exactly
    return per_id * (1 + group_i + group_j)


@_collector_paused()
def execute(
    plan: BasicScheme | CompositePlan,
    corpus: Corpus,
    suite: FunctionSuite,
    *,
    trace: IO[str] | None = None,
) -> ExecutionReport:
    """Run map, shuffle, and reduce under ``plan`` and verify against the
    centralized oracle. ``suite`` is required: its value size is the run's
    T. Raises on plan/corpus/suite mismatch, on any access outside the plan
    and on internal inconsistency; a wrong output is reported, not raised."""
    summary, schemes = _bind(plan, corpus.F, suite.iva_bits)
    first = schemes[0].params
    K, F, T = first.K, first.F, first.T
    N_total = sum(scheme.params.N for scheme in schemes)
    if corpus.N != N_total:
        raise InvalidParameterError(
            f"corpus has {corpus.N} files but the plan needs {N_total}"
        )
    if corpus.F != F:
        raise InvalidParameterError(f"corpus file size {corpus.F} != plan file size {F}")
    if suite.iva_bits != T:
        raise InvalidParameterError(
            f"suite produces {suite.iva_bits}-bit values but the plan assumes {T}"
        )

    with _oracle_beside(corpus, suite, K) as oracle_outputs:
        nodes = [
            _Node(k, corpus, (n for scheme in schemes for n in scheme.storage[k]))
            for k in range(1, K + 1)
        ]
        overhead_bits = 0
        # each node's reduce input, indexed by file id - 1
        collected = [[None] * N_total for _ in nodes]

        map_fn = suite.map_fn
        for scheme in schemes:
            # each node's blocks of the other targets, keyed by (target, first file)
            blocks: dict[int, dict[tuple[int, int], int]] = {node.k: {} for node in nodes}
            for batch, files in scheme.batches.items():
                for k, functions in scheme.mappers(batch):
                    read, uses, own = nodes[k - 1].read, len(functions), collected[k - 1]
                    data = [read(n, uses) for n in files]
                    for q in functions:
                        if q == k:
                            for n, d in zip(files, data):
                                own[n - 1] = map_fn(q, n, d)
                        else:
                            block = 0
                            for n, d in zip(files, data):
                                block = block << T | map_fn(q, n, d)
                            blocks[k][q, files[0]] = block

            signals = _encode(scheme, blocks, _block_segment)  # in the order the trace digests pin
            for signal in signals:
                sender = nodes[signal.sender - 1]
                sender.sent_signals += 1
                sender.sent_bits += signal.bit_length
                overhead_bits += _signal_overhead_bits(K, len(signal.group.i), len(signal.group.j))
            if trace is not None:
                write_signal_trace(signals, trace)

            store = {(signal.sender, signal.group): signal for signal in signals}
            for node, inputs in zip(nodes, collected):
                node.signals = store
                try:
                    _decode(inputs, 1, node.k, scheme, blocks[node.k], node, _block_segment)
                except Exception as err:
                    raise ExecutionError(f"decode failed at node {node.k}: {err}") from err
                node.signals = {}
            del blocks, signals, store  # freed once decoded, not held into the next scheme

        outputs = []
        for node, inputs in zip(nodes, collected):
            if None in inputs:
                missing = inputs.index(None) + 1
                raise ExecutionError(f"node {node.k} has no value of file {missing} to reduce")
            outputs.append(suite.reduce_fn(node.k, inputs))

    first_mismatch = None
    for k, got, want in zip(range(1, K + 1), outputs, oracle_outputs):
        for source, out in (("reduce", got), ("oracle", want)):
            if out.length != suite.output_bits:
                raise ExecutionError(
                    f"node {k}: {source} output has {out.length} bits "
                    f"but the suite declares {suite.output_bits}"
                )
        if got != want and first_mismatch is None:
            first_mismatch = {
                "node": k,
                "expected": want.to_bytes().hex(),
                "actual": got.to_bytes().hex(),
            }

    file_reads = sum(node.file_reads for node in nodes)
    signal_reads = sum(node.signal_reads for node in nodes)
    all_sent = sum(node.sent_signals for node in nodes)
    all_sent_bits = sum(node.sent_bits for node in nodes)
    measured = LoadReport(
        storage_space=Fraction(sum(node.stored for node in nodes), N_total),
        computation_load=Fraction(file_reads, N_total * K),
        communication_load=Fraction(all_sent_bits, N_total * K * T),
    )
    # every signal is broadcast to the other K - 1 nodes, so each node
    # receives all signals but its own
    per_node = tuple(
        PerNodeStats(
            node=node.k,
            stored_files=node.stored,
            computed_values=node.file_reads,
            sent_signals=node.sent_signals,
            sent_bits=node.sent_bits,
            received_signals=all_sent - node.sent_signals,
            received_bits=all_sent_bits - node.sent_bits,
        )
        for node in nodes
    )
    return ExecutionReport(
        K=K,
        N=N_total,
        T=T,
        B=suite.output_bits,
        seed=corpus.seed,
        plan=summary,
        measured=measured,
        predicted=_predicted_loads(schemes, N_total),
        per_node=per_node,
        outputs=tuple(out.to_bytes().hex() for out in outputs),
        verification_passed=first_mismatch is None,
        first_mismatch=first_mismatch,
        overhead_bits=overhead_bits,
        # an access outside the plan raises, so a finished run had none
        audit={"file_reads": file_reads, "signal_reads": signal_reads, "violations": []},
    )
