"""Coded exchange: XOR multicast signals, delivery, decoding.

Every intermediate-value block an absent node needs is split into g equal
whole-bit segments, one per coding-set member in ascending node order. Each
multicast group (i, j) yields one signal per sender in j: the XOR of the
sender's segments of the blocks requested by the other members of j.

One rule serves both ends. A receiver decodes by cancelling the known terms:
it XORs the signal with the same segments the sender XORed, all but its own,
and what is left is its missing segment. ``_segment`` is the only place a
block is built and cut, and ``_xor_known`` the only XOR over those terms.

Only payload bits count toward the communication load; simulation metadata
is tracked separately by the engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Mapping

from .bits import BitString
from .combinatorics import BatchIndex, GroupIndex, enum_pi
from .errors import DecodeError, InternalConsistencyError
from .scheme import BasicScheme, IvaId

IvaStore = Mapping[IvaId, BitString]


@dataclass(frozen=True)
class MulticastSignal:
    """One XOR payload multicast by ``sender`` for group (i, j)."""

    sender: int
    group: GroupIndex
    payload: BitString

    @property
    def bit_length(self) -> int:
        return self.payload.length


def _segment(
    computed: IvaStore, scheme: BasicScheme, group: GroupIndex, target: int, owner: int
) -> BitString:
    """The ``owner`` segment of the block that ``target`` requests in ``group``.

    The block is the batch (group.i, group.j) minus ``target``, its values for
    ``target`` joined in ascending file order; raises KeyError naming the
    first value missing from ``computed``.
    """
    batch = BatchIndex(
        tuple(x for x in group.i if x != target),
        tuple(x for x in group.j if x != target),
    )
    block = BitString.join(computed[IvaId(target, n)] for n in scheme.batches[batch])
    seg_bits = block.length // scheme.params.g
    return block.slice(batch.t.index(owner) * seg_bits, seg_bits)


def _xor_known(
    acc: BitString | None,
    computed: IvaStore,
    scheme: BasicScheme,
    group: GroupIndex,
    owner: int,
    skip: int | None = None,
) -> BitString | None:
    """``acc`` XORed with the ``owner`` segment of the block requested by each
    member of group.j other than ``owner`` and ``skip``."""
    for i in group.j:
        if i != owner and i != skip:
            seg = _segment(computed, scheme, group, i, owner)
            acc = seg if acc is None else acc.xor(seg)
    return acc


def build_signals(scheme: BasicScheme, computed: Mapping[int, IvaStore]) -> list[MulticastSignal]:
    """Every multicast signal of the scheme, in group order then sender order.

    Each sender XORs its segments of the blocks requested by the other
    members of its group's j-set. All operands are in the sender's planned
    compute set; a miss indicates a compute-plan bug.
    """
    p = scheme.params
    if p.r >= p.K:
        return []  # every node stores everything; nothing to exchange
    signals = []
    for group in enum_pi(p.K, p.r, p.g):
        for sender in group.j:
            try:
                payload = _xor_known(None, computed[sender], scheme, group, sender)
            except KeyError as missing:
                raise InternalConsistencyError(
                    f"node {sender} lacks operand {missing} for group {group}"
                ) from None
            signals.append(MulticastSignal(sender, group, payload))
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
    delivered: dict[int, dict[tuple[int, GroupIndex], MulticastSignal]] = {
        k: {} for k in range(1, scheme.params.K + 1)
    }
    for signal in signals:
        for k in delivered:
            if k != signal.sender:
                delivered[k][(signal.sender, signal.group)] = signal
    return delivered, total_bits


def decode_node(
    k: int,
    scheme: BasicScheme,
    computed_k: IvaStore,
    delivered_k: Mapping[tuple[int, GroupIndex], MulticastSignal],
) -> dict[int, BitString]:
    """Recover node k's full value set {v_(k,n) : n in [N]}.

    Locally computed values cover stored batches. For each missing batch and
    each coding-set member j, the j-owned segment of k's block is j's group
    signal with the known terms cancelled (``_xor_known`` skipping k);
    segments reassemble in ascending owner order into the block, which splits
    back into values.
    """
    p = scheme.params
    result: dict[int, BitString] = {}
    for n in scheme.storage[k]:
        iva = computed_k.get(IvaId(k, n))
        if iva is None:
            raise DecodeError(f"node {k} missing own value for file {n}")
        result[n] = iva
    for batch in scheme.missing_batches(k):
        group = GroupIndex(
            tuple(sorted(batch.s + (k,))),
            tuple(sorted(batch.t + (k,))),
        )
        segments = []
        for j in batch.t:
            signal = delivered_k.get((j, group))
            if signal is None:
                raise DecodeError(
                    f"node {k} missing signal from {j} for group {group}",
                    batch=batch,
                    owner=j,
                )
            try:
                segments.append(_xor_known(signal.payload, computed_k, scheme, group, j, skip=k))
            except KeyError as missing:
                raise DecodeError(
                    f"node {k} lacks local operand {missing} for group {group}",
                    batch=batch,
                    owner=j,
                ) from None
        block = BitString.join(segments)  # owners ascend with batch.t order
        for n, iva in zip(scheme.batches[batch], block.chunks(p.T)):
            result[n] = iva
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
