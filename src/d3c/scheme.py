"""Construction of basic coded-computing schemes and their load accounting.

A basic scheme with parameters (K, N, r, g) partitions the N files into
batches indexed by (s, t) pairs, stores each batch at the nodes in s, and
plans two kinds of map work per node k: ``compute_own`` (intermediate values
for k's own reduce function, from stored files) and ``compute_coded``
(intermediate values k must contribute to coded multicasts, i.e. values for
targets outside s over batches where k sits in t).

The CDC baseline keeps the same placement at g = r but computes every
intermediate value derivable from stored files, so its computation load is r.

All loads are exact rationals; the identities they satisfy are exact, so
tests compare with zero tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import BatchIndex, batch_size, binomial, enum_omega
from .errors import InvalidParameterError


class IvaId(NamedTuple):
    """Identity of one intermediate value: (target node, file id)."""

    target: int
    file: int


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
        return self.N // (binomial(self.K, self.r) * binomial(self.r, self.g))


def make_params(
    K: int, N: int, r: int, g: int, *, F: int = 64, T: int | None = None
) -> SchemeParams:
    """Convenience constructor filling in safe F and T defaults."""
    if T is None:
        T = default_iva_bits(r)
    return SchemeParams(K=K, N=N, F=F, T=T, r=r, g=g)


@dataclass(frozen=True)
class BasicScheme:
    """A fully materialized placement and compute plan.

    ``batches`` maps each batch index to its file ids; ``storage`` holds each
    node's stored file set M_k; ``compute_own`` and ``compute_coded`` hold the
    disjoint planned map work per node, as sorted tuples for cheap equality.
    ``kind`` distinguishes the coded plan ("d3c") from the baseline ("cdc").
    """

    params: SchemeParams
    batches: dict[BatchIndex, tuple[int, ...]]
    storage: dict[int, tuple[int, ...]]
    compute_own: dict[int, tuple[IvaId, ...]]
    compute_coded: dict[int, tuple[IvaId, ...]]
    kind: str = field(default="d3c")

    def compute_set(self, k: int) -> set[IvaId]:
        """All intermediate values node k computes in the map phase."""
        return set(self.compute_own[k]) | set(self.compute_coded[k])

    def missing_batches(self, k: int) -> list[BatchIndex]:
        """Batches whose own-target values node k must learn in the shuffle."""
        return [b for b in self.batches if k not in b.s]


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
    """Build the coded scheme: placement plus the two-part compute plan."""
    batches, storage = _placement(params)
    all_nodes = range(1, params.K + 1)
    compute_own = {}
    compute_coded = {}
    for k in all_nodes:
        own = [IvaId(k, n) for n in storage[k]]
        coded = []
        for index, files in batches.items():
            if k in index.t:
                for q in all_nodes:
                    if q not in index.s:
                        coded.extend(IvaId(q, n) for n in files)
        compute_own[k] = tuple(sorted(own))
        compute_coded[k] = tuple(sorted(coded))
    return BasicScheme(params, batches, storage, compute_own, compute_coded, kind="d3c")


def build_cdc_scheme(K: int, N: int, r: int, *, F: int = 64, T: int | None = None) -> BasicScheme:
    """Baseline scheme: same placement as g = r, but every node computes the
    intermediate values of all targets from all its stored files (load r)."""
    params = make_params(K, N, r, r, F=F, T=T)
    batches, storage = _placement(params)
    compute_own = {}
    compute_coded = {}
    for k in range(1, K + 1):
        compute_own[k] = tuple(sorted(IvaId(k, n) for n in storage[k]))
        compute_coded[k] = tuple(
            sorted(IvaId(q, n) for q in range(1, K + 1) if q != k for n in storage[k])
        )
    return BasicScheme(params, batches, storage, compute_own, compute_coded, kind="cdc")


def measure_storage(scheme: BasicScheme) -> Fraction:
    """Total files stored across nodes over N; equals r for valid schemes."""
    total = sum(len(files) for files in scheme.storage.values())
    return Fraction(total, scheme.params.N)


def measure_computation(scheme: BasicScheme) -> Fraction:
    """Total planned map evaluations over N*K."""
    total = sum(
        len(scheme.compute_own[k]) + len(scheme.compute_coded[k])
        for k in scheme.storage
    )
    return Fraction(total, scheme.params.N * scheme.params.K)


@dataclass(frozen=True)
class LoadReport:
    """Normalized resource usage of one run: all exact rationals."""

    storage_space: Fraction
    computation_load: Fraction
    communication_load: Fraction

    def to_dict(self) -> dict:
        return {
            name: {"exact": str(value), "value": float(value)}
            for name, value in (
                ("storage_space", self.storage_space),
                ("computation_load", self.computation_load),
                ("communication_load", self.communication_load),
            )
        }


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


def scheme_to_json(scheme: BasicScheme, *, indent: int = 2) -> str:
    return json.dumps(scheme_to_dict(scheme), indent=indent)
