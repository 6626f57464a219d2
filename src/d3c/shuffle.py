"""Coded exchange: XOR multicast signals, delivery, decoding.

Every intermediate-value block an absent node needs is split into g equal
whole-bit segments, one per coding-set member in ascending node order. Each
multicast group (i, j) yields one signal per sender in j: the XOR of the
sender's segments of the blocks requested by the other members of j.

One rule serves both ends. A receiver decodes by cancelling the known terms:
it XORs the signal with the same segments the sender XORed, all but its own,
and what is left is its missing segment. Both ends read who requests which
batch, and who owns its segments, from the scheme's coding table
(``BasicScheme.coding``). A block is an int, its values joined in file
order; ``_blocks`` is the only block builder, ``_segment`` the only cut and
``_xor_known`` the only XOR over the known terms. An intermediate value is
an int below 2**T, from the computed stores through the decoded result;
``BitString`` wraps only each signal payload, once.

Only payload bits count toward the communication load; simulation metadata
is tracked separately by the engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Mapping

from .bits import BitString
from .combinatorics import GroupIndex
from .errors import DecodeError, InternalConsistencyError
from .scheme import BasicScheme, CodingRow, IvaId

IvaStore = Mapping[IvaId, int]
Block = Callable[[int, tuple[int, ...]], int]


@dataclass(frozen=True)
class MulticastSignal:
    """One XOR payload multicast by ``sender`` for group (i, j)."""

    sender: int
    group: GroupIndex
    payload: BitString

    @property
    def bit_length(self) -> int:
        return self.payload.length


def _blocks(store: IvaStore, T: int) -> Block:
    """Block builder over one node's store for one group: ``block(i, files)``
    joins i's values for ``files`` in file order, once per member i; raises
    KeyError naming the first IvaId missing from ``store``."""
    built: dict[int, int] = {}

    def block(i: int, files: tuple[int, ...]) -> int:
        v = built.get(i)
        if v is None:
            v = 0
            try:
                for n in files:
                    v = (v << T) | store[i, n]
            except KeyError:
                raise KeyError(IvaId(i, n)) from None
            built[i] = v
        return v

    return block


def _segment(block: int, owners: tuple[int, ...], owner: int, seg_bits: int) -> int:
    """The ``owner`` segment of a block: owners hold its g segments in
    ascending order from the most significant bits."""
    shift = (len(owners) - 1 - owners.index(owner)) * seg_bits
    return (block >> shift) & ((1 << seg_bits) - 1)


def _xor_known(
    acc: int,
    block: Block,
    members: tuple[CodingRow, ...],
    owner: int,
    seg_bits: int,
    skip: int | None = None,
) -> int:
    """``acc`` XORed with the ``owner`` segment of the block requested by each
    member of the group other than ``owner`` and ``skip``."""
    for i, files, owners in members:
        if i != owner and i != skip:
            acc ^= _segment(block(i, files), owners, owner, seg_bits)
    return acc


def build_signals(scheme: BasicScheme, computed: Mapping[int, IvaStore]) -> list[MulticastSignal]:
    """Every multicast signal of the scheme, in group order then sender order.

    Each sender XORs its segments of the blocks requested by the other
    members of its group's j-set. All operands are in the sender's planned
    compute set; a miss indicates a compute-plan bug.
    """
    p = scheme.params
    T, seg_bits = p.T, p.eta * p.T // p.g
    signals = []
    for group, members in scheme.coding.items():
        for sender in group.j:
            try:
                payload = _xor_known(0, _blocks(computed[sender], T), members, sender, seg_bits)
            except KeyError as missing:
                raise InternalConsistencyError(
                    f"node {sender} lacks operand {missing} for group {group}"
                ) from None
            signals.append(MulticastSignal(sender, group, BitString(payload, seg_bits)))
    return signals


def run_shuffle(
    scheme: BasicScheme, computed: Mapping[int, IvaStore]
) -> tuple[dict[int, dict[tuple[int, GroupIndex], MulticastSignal]], int]:
    """Build all signals and deliver each to every other node losslessly.

    Returns the per-node delivered store keyed by (sender, group) and the
    total payload bits placed on the channel.
    """
    signals = build_signals(scheme, computed)
    total_bits = sum(s.bit_length for s in signals)
    everything = {(s.sender, s.group): s for s in signals}
    delivered = {k: everything.copy() for k in range(1, scheme.params.K + 1)}
    for key in everything:
        del delivered[key[0]][key]  # a sender does not receive its own signal
    return delivered, total_bits


def decode_node(
    k: int,
    scheme: BasicScheme,
    computed_k: IvaStore,
    delivered_k: Mapping[tuple[int, GroupIndex], MulticastSignal],
) -> dict[int, int]:
    """Recover node k's full value set {v_(k,n) : n in [N]}, as ints by file.

    Locally computed values cover stored batches. Each missing batch is k's
    row of a group whose j-set holds k. For each coding-set member j, the
    j-owned segment of k's block is j's group signal with the known terms
    cancelled (``_xor_known`` skipping k), each known block built once;
    segments reassemble in ascending owner order into the block, which
    splits back into values.
    """
    p = scheme.params
    T, seg_bits = p.T, p.eta * p.T // p.g
    value_mask = (1 << T) - 1
    result: dict[int, int] = {}
    for n in scheme.storage[k]:
        iva = computed_k.get((k, n))
        if iva is None:
            raise DecodeError(f"node {k} missing own value for file {n}")
        result[n] = iva
    for group, members in scheme.coding.items():
        if k not in group.j:
            continue
        _, files, owners = members[group.j.index(k)]
        block = _blocks(computed_k, T)
        recovered = 0
        for j in owners:
            signal = delivered_k.get((j, group))
            if signal is None:
                raise DecodeError(
                    f"node {k} missing signal from {j} for group {group}",
                    batch=group.requested_by(k),
                    owner=j,
                )
            if signal.bit_length != seg_bits:
                raise DecodeError(
                    f"node {k} got a {signal.bit_length}-bit signal from {j} for group "
                    f"{group}; segments have {seg_bits} bits",
                    batch=group.requested_by(k),
                    owner=j,
                )
            try:
                seg = _xor_known(signal.payload.value, block, members, j, seg_bits, skip=k)
            except KeyError as missing:
                raise DecodeError(
                    f"node {k} lacks local operand {missing} for group {group}",
                    batch=group.requested_by(k),
                    owner=j,
                ) from None
            recovered = (recovered << seg_bits) | seg  # owners ascend
        shift = len(files) * T
        for n in files:
            shift -= T
            result[n] = (recovered >> shift) & value_mask
    return result


def signal_trace_records(signals: list[MulticastSignal]) -> list[dict]:
    """One audit record per signal, stable across runs and implementations."""
    return [
        {
            "sender": s.sender,
            "group_i": list(s.group.i),
            "group_j": list(s.group.j),
            "bit_length": s.bit_length,
            "payload_digest": s.payload.digest(),
        }
        for s in signals
    ]


def write_signal_trace(signals: list[MulticastSignal], fp: IO[str]) -> None:
    """JSON-lines trace of the exchange, one record per signal."""
    for record in signal_trace_records(signals):
        fp.write(json.dumps(record, separators=(",", ":")) + "\n")
