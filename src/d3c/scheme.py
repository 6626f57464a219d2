"""Construction of basic coded-computing schemes and their load accounting.

A basic scheme with parameters (K, N, r, g) partitions the N files into
batches indexed by (s, t) pairs and stores each batch at the nodes in s.
One compute rule, ``BasicScheme.mappers``, says per batch which functions
each node in s maps on it. D3C maps the node's own function k, plus every
function q outside s when k sits in t (the values k contributes to coded
multicasts). The CDC baseline keeps the same placement at g = r but maps
every function on every stored batch, so its computation load is r.
``compute_own`` and ``compute_coded`` are views derived from that rule, and
``coding`` is the table the coded exchange reads: who requests which batch
in each multicast group, and who owns its segments.

All loads are exact rationals; the identities they satisfy are exact, so
tests compare with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .combinatorics import BatchIndex, GroupIndex, batch_size, enum_omega, enum_pi, group_divisor
from .errors import InvalidParameterError


class IvaId(NamedTuple):
    """Identity of one intermediate value: (target node, file id)."""

    target: int
    file: int


# One row of the coding table: (member, files of the batch it requests, the
# coding set of that batch).
CodingRow = tuple[int, tuple[int, ...], tuple[int, ...]]


def byte_iva_bits(g: int, eta: int) -> int:
    """Smallest whole-byte value size T whose blocks of eta values split into
    g whole-bit segments, that is, with g dividing eta * T."""
    return 8 * g // math.gcd(g, 8 * eta)


@dataclass(frozen=True)
class SchemeParams:
    """Parameter tuple of one basic scheme instance.

    K: nodes; N: files; F: file size in bits; T: intermediate-value size in
    bits; r: storage parameter; g: coding parameter.
    """

    K: int
    N: int
    F: int
    T: int
    r: int
    g: int

    def __post_init__(self):
        if self.K < 2:
            raise InvalidParameterError(f"need at least 2 nodes, got K={self.K}")
        if not 1 <= self.g <= self.r <= self.K:
            raise InvalidParameterError(
                f"need 1 <= g <= r <= K, got g={self.g}, r={self.r}, K={self.K}"
            )
        if self.F < 1 or self.T < 1:
            raise InvalidParameterError("file and intermediate-value sizes must be positive")
        eta = batch_size(self.N, self.K, self.r, self.g)  # also checks divisibility
        if (eta * self.T) % self.g:
            raise InvalidParameterError(
                f"segment divisibility violated: g={self.g} must divide "
                f"eta*T = {eta}*{self.T}; choose T as a multiple of "
                f"{self.g // math.gcd(self.g, eta)} (the smallest whole-byte T is "
                f"{byte_iva_bits(self.g, eta)})"
            )

    @property
    def eta(self) -> int:
        """Files per batch."""
        return self.N // group_divisor(self.K, self.r, self.g)


def make_params(
    K: int, N: int, r: int, g: int, *, F: int = 64, T: int | None = None
) -> SchemeParams:
    """The parameters of one basic scheme, T by default the smallest
    whole-byte value size its segments divide, byte_iva_bits(g, eta). The
    other parameters are checked first with T = g, which passes the segment
    check whatever the batch size."""
    if T is None:
        T = byte_iva_bits(g, SchemeParams(K=K, N=N, F=F, T=g, r=r, g=g).eta)
    return SchemeParams(K=K, N=N, F=F, T=T, r=r, g=g)


@dataclass(frozen=True)
class BasicScheme:
    """A placement plus one compute rule.

    ``batches`` maps each batch index (s, t) to its file ids; ``storage``,
    each node's stored files M_k, is derived from it. ``kind`` names the
    rule that ``mappers`` applies on each batch, for every node in s: "d3c"
    maps node k's own function, and every function outside s when k is in
    t; "cdc" maps every function. ``compute_own`` and ``compute_coded`` are
    views derived from the rule: the values of k's own function and of the
    others, as sorted IvaId tuples. Every table is built by its first reader.
    """

    params: SchemeParams
    batches: dict[BatchIndex, tuple[int, ...]]
    kind: str = "d3c"

    def __post_init__(self):
        if self.kind not in ("d3c", "cdc"):
            raise InvalidParameterError(f"scheme kind must be 'd3c' or 'cdc', got {self.kind!r}")

    @cached_property
    def storage(self) -> dict[int, tuple[int, ...]]:
        """Each node's files M_k: the files of every batch whose s holds k,
        in batch order, which is ascending under ``_placement``."""
        storage: dict[int, list[int]] = {k: [] for k in range(1, self.params.K + 1)}
        for batch, files in self.batches.items():
            for k in batch.s:
                storage[k] += files
        return {k: tuple(files) for k, files in storage.items()}

    def mappers(self, batch: BatchIndex) -> list[tuple[int, tuple[int, ...]]]:
        """(k, functions k maps on every file of the batch) for each k in s."""
        nodes = tuple(range(1, self.params.K + 1))
        if self.kind == "cdc":
            return [(k, nodes) for k in batch.s]
        stored, coding = set(batch.s), set(batch.t)
        outside = tuple(q for q in nodes if q not in stored)
        return [(k, (k, *outside) if k in coding else (k,)) for k in batch.s]

    @property
    def compute_own(self) -> dict[int, tuple[IvaId, ...]]:
        return self._views[0]

    @property
    def compute_coded(self) -> dict[int, tuple[IvaId, ...]]:
        return self._views[1]

    @cached_property
    def coding(self) -> dict[GroupIndex, tuple[CodingRow, ...]]:
        """The coding table, in group order: for each multicast group (i, j),
        one (member, files, owners) row per member of j, ascending. ``files``
        is the batch (i, j) minus the member, which that member requests;
        ``owners``, its coding set, hold the block's g segments in ascending
        order. Empty at r = K. Built by its first reader, the exchange.
        """
        p = self.params
        if p.r >= p.K:
            return {}
        batches, table = self.batches, {}
        for group in enum_pi(p.K, p.r, p.g):
            rows = []
            for member in group.j:
                batch = group.requested_by(member)
                rows.append((member, batches[batch], batch.t))
            table[group] = tuple(rows)
        return table

    @cached_property
    def member_groups(self) -> dict[int, list[GroupIndex]]:
        """Each node's multicast groups, those whose j holds it, in order."""
        groups: dict[int, list[GroupIndex]] = {k: [] for k in range(1, self.params.K + 1)}
        for group in self.coding:
            for k in group.j:
                groups[k].append(group)
        return groups

    @cached_property
    def _views(self) -> tuple[dict[int, tuple[IvaId, ...]], ...]:
        """(compute_own, compute_coded), from one pass over the batches."""
        nodes = range(1, self.params.K + 1)
        own, coded = {k: [] for k in nodes}, {k: [] for k in nodes}
        for batch, files in self.batches.items():
            for k, functions in self.mappers(batch):
                for q in functions:
                    (own if q == k else coded)[k] += (IvaId(q, n) for n in files)
        return tuple({k: tuple(sorted(ivas)) for k, ivas in view.items()} for view in (own, coded))


def _placement(params: SchemeParams, first_file: int = 1) -> dict[BatchIndex, tuple[int, ...]]:
    """Assign files, numbered from first_file, to batches in enumeration order."""
    eta = params.eta
    batches: dict[BatchIndex, tuple[int, ...]] = {}
    next_file = first_file
    for index in enum_omega(params.K, params.r, params.g):
        batches[index] = tuple(range(next_file, next_file + eta))
        next_file += eta
    return batches


def build_basic_scheme(params: SchemeParams) -> BasicScheme:
    """The coded scheme: its placement, computed under the d3c rule."""
    return BasicScheme(params, _placement(params))


def build_cdc_scheme(K: int, N: int, r: int, *, F: int = 64, T: int | None = None) -> BasicScheme:
    """Baseline scheme: the placement of g = r, but every node maps every
    function on every file it stores (load r)."""
    params = make_params(K, N, r, r, F=F, T=T)
    return BasicScheme(params, _placement(params), kind="cdc")


def measure_storage(scheme: BasicScheme) -> Fraction:
    """Total files stored across nodes over N; equals r for valid schemes."""
    total = sum(len(files) for files in scheme.storage.values())
    return Fraction(total, scheme.params.N)


def measure_computation(scheme: BasicScheme) -> Fraction:
    """Total planned map evaluations over N*K."""
    total = sum(
        len(files) * len(functions)
        for batch, files in scheme.batches.items()
        for _, functions in scheme.mappers(batch)
    )
    return Fraction(total, scheme.params.N * scheme.params.K)


@dataclass(frozen=True)
class LoadReport:
    """Normalized resource usage of one run: all exact rationals."""

    storage_space: Fraction
    computation_load: Fraction
    communication_load: Fraction

    def to_dict(self) -> dict:
        return {name: {"exact": str(v), "value": float(v)} for name, v in vars(self).items()}


def scheme_to_dict(scheme: BasicScheme) -> dict:
    """JSON-ready view: params, batch table, per-node storage and compute lists."""
    p = scheme.params
    return {
        "kind": scheme.kind,
        "params": {"K": p.K, "N": p.N, "F": p.F, "T": p.T, "r": p.r, "g": p.g},
        "batches": [
            {"s": list(index.s), "t": list(index.t), "files": list(files)}
            for index, files in scheme.batches.items()
        ],
        "storage": {str(k): list(files) for k, files in scheme.storage.items()},
        "compute_own": {
            str(k): [[iva.target, iva.file] for iva in ivas]
            for k, ivas in scheme.compute_own.items()
        },
        "compute_coded": {
            str(k): [[iva.target, iva.file] for iva in ivas]
            for k, ivas in scheme.compute_coded.items()
        },
    }
