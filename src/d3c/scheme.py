"""Construction of basic coded-computing schemes and their load accounting.

A basic scheme with parameters (K, N, r, g) partitions the N files into
batches indexed by (s, t) pairs and stores each batch at the nodes in s.
One compute rule, ``BasicScheme.targets``, says which functions a node maps
on a batch it stores. D3C maps the node's own function k, plus every
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


def default_iva_bits(r: int) -> int:
    """Default intermediate-value size: 8 * lcm(1..r) bits.

    Guarantees every g <= r splits blocks into whole-bit segments for any
    batch size, so the divisibility precondition never bites by default.
    """
    if r < 1:
        raise InvalidParameterError(f"need r >= 1, got {r}")
    return 8 * math.lcm(*range(1, r + 1))


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
                f"eta*T = {eta}*{self.T}; choose T as a multiple of {self.g} "
                f"(default_iva_bits(r) always works)"
            )

    @property
    def eta(self) -> int:
        """Files per batch."""
        return self.N // group_divisor(self.K, self.r, self.g)


def make_params(
    K: int, N: int, r: int, g: int, *, F: int = 64, T: int | None = None
) -> SchemeParams:
    """Convenience constructor filling in safe F and T defaults."""
    if T is None:
        T = default_iva_bits(r)
    return SchemeParams(K=K, N=N, F=F, T=T, r=r, g=g)


@dataclass(frozen=True)
class BasicScheme:
    """A placement plus one compute rule.

    ``batches`` maps each batch index (s, t) to its file ids; ``storage``
    holds each node's stored file set M_k. ``kind`` names the rule that
    ``targets`` applies on each stored batch: "d3c" maps node k's own
    function, and every function outside s when k is in t; "cdc" maps every
    function. ``compute_own`` and ``compute_coded`` are views derived from
    the rule: the values of k's own function and of the others, as sorted
    IvaId tuples.
    """

    params: SchemeParams
    batches: dict[BatchIndex, tuple[int, ...]]
    storage: dict[int, tuple[int, ...]]
    kind: str = "d3c"

    def __post_init__(self):
        self.coding  # built once, with the scheme, before any exchange reads it

    def targets(self, k: int, batch: BatchIndex) -> tuple[int, ...]:
        """Functions node k maps on every file of a batch it stores."""
        nodes = range(1, self.params.K + 1)
        if self.kind == "cdc":
            return tuple(nodes)
        if k not in batch.t:
            return (k,)
        return (k, *(q for q in nodes if q not in batch.s))

    @cached_property
    def compute_own(self) -> dict[int, tuple[IvaId, ...]]:
        return self._planned(own=True)

    @cached_property
    def compute_coded(self) -> dict[int, tuple[IvaId, ...]]:
        return self._planned(own=False)

    @cached_property
    def coding(self) -> dict[GroupIndex, tuple[CodingRow, ...]]:
        """The coding table, in group order: for each multicast group (i, j),
        one (member, files, owners) row per member of j, ascending. ``files``
        is the batch (i, j) minus the member, which that member requests;
        ``owners``, its coding set, hold the block's g segments in ascending
        order. Empty when every node stores everything (r = K).
        """
        p = self.params
        if p.r >= p.K:
            return {}
        table = {}
        for group in enum_pi(p.K, p.r, p.g):
            requested = [group.requested_by(member) for member in group.j]
            table[group] = tuple(
                (member, self.batches[batch], batch.t)
                for member, batch in zip(group.j, requested)
            )
        return table

    def _planned(self, own: bool) -> dict[int, tuple[IvaId, ...]]:
        return {
            k: tuple(sorted(
                IvaId(q, n)
                for batch, files in self.batches.items() if k in batch.s
                for q in self.targets(k, batch) if (q == k) == own
                for n in files
            ))
            for k in self.storage
        }


def _placement(params: SchemeParams) -> tuple[dict, dict]:
    """Assign files to batches in enumeration order and derive storage sets."""
    eta = params.eta
    batches: dict[BatchIndex, tuple[int, ...]] = {}
    next_file = 1
    for index in enum_omega(params.K, params.r, params.g):
        batches[index] = tuple(range(next_file, next_file + eta))
        next_file += eta
    storage = {}
    for k in range(1, params.K + 1):
        stored: list[int] = []
        for index, files in batches.items():
            if k in index.s:
                stored.extend(files)
        storage[k] = tuple(sorted(stored))
    return batches, storage


def build_basic_scheme(params: SchemeParams) -> BasicScheme:
    """The coded scheme: its placement, computed under the d3c rule."""
    return BasicScheme(params, *_placement(params))


def build_cdc_scheme(K: int, N: int, r: int, *, F: int = 64, T: int | None = None) -> BasicScheme:
    """Baseline scheme: the placement of g = r, but every node maps every
    function on every file it stores (load r)."""
    params = make_params(K, N, r, r, F=F, T=T)
    return BasicScheme(params, *_placement(params), kind="cdc")


def measure_storage(scheme: BasicScheme) -> Fraction:
    """Total files stored across nodes over N; equals r for valid schemes."""
    total = sum(len(files) for files in scheme.storage.values())
    return Fraction(total, scheme.params.N)


def measure_computation(scheme: BasicScheme) -> Fraction:
    """Total planned map evaluations over N*K."""
    total = sum(
        len(files) * len(scheme.targets(k, batch))
        for batch, files in scheme.batches.items()
        for k in batch.s
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
