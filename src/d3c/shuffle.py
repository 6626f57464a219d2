"""Coded exchange: XOR multicast signals, delivery, decoding.

Every intermediate-value block an absent node needs is split into g equal
whole-bit segments, one per coding-set member in ascending node order. Each
multicast group (i, j) yields one signal per sender in j: the XOR of the
sender's segments of the blocks requested by the other members of j.

One rule serves both ends. A receiver decodes by cancelling the known terms:
it XORs the signal with the same segments the sender XORed, all but its own,
and what is left is its missing segment. Both ends read who requests which
batch, and who owns its segments, from the scheme's coding table
(``BasicScheme.coding``). A block is its values joined in file order, the
first file in the top bits. ``_xor_known`` is the only XOR over the known
terms. One encode loop and one decode loop serve two kinds of store, which
differ only in how an operand segment is cut. From an ``IvaId`` store of one
value per (target, file), which the public calls read, ``_segment`` joins
just the values the segment spans, so no whole block is built. From a block
store, ``engine.execute``'s, which keeps each block whole under (target,
first file of the batch), ``_block_segment`` cuts with one shift and mask.
An intermediate value is an int below 2**T, from the computed stores
through the decoded result; ``BitString`` wraps only each signal payload,
once.

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
Cut = Callable[[Mapping, int, CodingRow, int, int], int]  # _segment or _block_segment


@dataclass(frozen=True)
class MulticastSignal:
    """One XOR payload multicast by ``sender`` for group (i, j)."""

    sender: int
    group: GroupIndex
    payload: BitString

    @property
    def bit_length(self) -> int:
        return self.payload.length


def _segment(store: IvaStore, T: int, row: CodingRow, owner: int, seg_bits: int) -> int:
    """The ``owner`` segment of the block that ``row`` requests, cut from the
    values it spans alone. The block is the row member's values for its
    files joined in file order, and its owners hold its g segments in
    ascending order from the most significant bits. Raises KeyError naming
    the first spanned IvaId missing from ``store``."""
    i, files, owners = row
    start = owners.index(owner) * seg_bits
    end = start + seg_bits
    last = -(-end // T)
    v = 0
    try:
        for n in files[start // T : last]:
            v = (v << T) | store[i, n]
    except KeyError:
        raise KeyError(IvaId(i, n)) from None
    return (v >> (last * T - end)) & ((1 << seg_bits) - 1)


def _block_segment(store: Mapping, T: int, row: CodingRow, owner: int, seg_bits: int) -> int:
    """``_segment`` from a store holding each block whole under (member,
    first file): one shift and mask."""
    i, files, owners = row
    try:
        block = store[i, files[0]]
    except KeyError:
        raise KeyError(IvaId(i, files[0])) from None
    return (block >> (len(owners) - 1 - owners.index(owner)) * seg_bits) & ((1 << seg_bits) - 1)


def _xor_known(acc: int, store: Mapping, cut: Cut, T: int, members: tuple[CodingRow, ...],
               owner: int, seg_bits: int, skip: int | None = None) -> int:
    """``acc`` XORed with the ``owner`` segment, cut from ``store`` by ``cut``,
    of the block requested by each member of the group other than ``owner``
    and ``skip``."""
    for row in members:
        if row[0] != owner and row[0] != skip:
            acc ^= cut(store, T, row, owner, seg_bits)
    return acc


def _encode(scheme: BasicScheme, computed: Mapping[int, Mapping], cut: Cut
            ) -> list[MulticastSignal]:
    """``build_signals`` over the stores that ``cut`` reads."""
    p = scheme.params
    T, seg_bits = p.T, p.eta * p.T // p.g
    signals = []
    for group, members in scheme.coding.items():
        for sender in group.j:
            try:
                payload = _xor_known(0, computed[sender], cut, T, members, sender, seg_bits)
            except KeyError as missing:
                raise InternalConsistencyError(
                    f"node {sender} lacks operand {missing} for group {group}"
                ) from None
            signals.append(MulticastSignal(sender, group, BitString(payload, seg_bits)))
    return signals


def build_signals(scheme: BasicScheme, computed: Mapping[int, IvaStore]) -> list[MulticastSignal]:
    """Every multicast signal of the scheme, in group order then sender order.

    Each sender XORs its segments of the blocks requested by the other
    members of its group's j-set. All operands are in the sender's planned
    compute set; a miss indicates a compute-plan bug.
    """
    return _encode(scheme, computed, _segment)


def run_shuffle(
    scheme: BasicScheme, computed: Mapping[int, IvaStore]
) -> tuple[dict[int, dict[tuple[int, GroupIndex], MulticastSignal]], int]:
    """Build all signals and deliver each to every other node losslessly.

    Returns the per-node delivered store keyed by (sender, group) and the
    total payload bits placed on the channel. This per-node-copy helper
    serves callers outside ``execute``, which holds each scheme's signals in
    one broadcast store instead.
    """
    signals = build_signals(scheme, computed)
    total_bits = sum(s.bit_length for s in signals)
    everything = {(s.sender, s.group): s for s in signals}
    delivered = {k: everything.copy() for k in range(1, scheme.params.K + 1)}
    for key in everything:
        del delivered[key[0]][key]  # a sender does not receive its own signal
    return delivered, total_bits


def _decode_error(k: int, group: GroupIndex, owner: int, why: str) -> DecodeError:
    """Node k's failure to decode ``owner``'s segment of its batch in ``group``."""
    return DecodeError(f"node {k} {why}", batch=group.requested_by(k), owner=owner)


def _decode(out: dict | list, offset: int, k: int, scheme: BasicScheme, computed_k: Mapping,
            delivered_k: Mapping[tuple[int, GroupIndex], MulticastSignal], cut: Cut) -> None:
    """Write node k's value of each file n it does not store to
    ``out[n - offset]``. Each missing batch is k's row of a group whose j-set
    holds k (``member_groups``). For each coding-set member j, the j-owned
    segment of k's block is j's group signal with the known terms, cut from
    ``computed_k`` by ``cut``, cancelled (``_xor_known`` skipping k);
    segments reassemble in ascending owner order into the block, which
    splits back into values.
    """
    p = scheme.params
    T, seg_bits = p.T, p.eta * p.T // p.g
    value_mask = (1 << T) - 1
    for group in scheme.member_groups[k]:
        members = scheme.coding[group]
        _, files, owners = members[group.j.index(k)]
        recovered = 0
        for j in owners:
            signal = delivered_k.get((j, group))
            if signal is None:
                raise _decode_error(k, group, j, f"missing signal from {j} for group {group}")
            if signal.bit_length != seg_bits:
                raise _decode_error(k, group, j, f"got a {signal.bit_length}-bit signal from {j} "
                                    f"for group {group}; segments have {seg_bits} bits")
            try:
                seg = _xor_known(
                    signal.payload.value, computed_k, cut, T, members, j, seg_bits, skip=k
                )
            except KeyError as missing:
                why = f"lacks local operand {missing} for group {group}"
                raise _decode_error(k, group, j, why) from None
            recovered = (recovered << seg_bits) | seg  # owners ascend
        shift = len(files) * T
        for n in files:
            shift -= T
            out[n - offset] = (recovered >> shift) & value_mask


def decode_node(
    k: int,
    scheme: BasicScheme,
    computed_k: IvaStore,
    delivered_k: Mapping[tuple[int, GroupIndex], MulticastSignal],
) -> dict[int, int]:
    """Recover node k's full value set {v_(k,n) : n in [N]}, as ints by file.

    Locally computed values cover stored batches; ``_decode`` recovers the
    rest, reading only the values its segments span.
    """
    result: dict[int, int] = {}
    for n in scheme.storage[k]:
        iva = computed_k.get((k, n))
        if iva is None:
            raise DecodeError(f"node {k} missing own value for file {n}")
        result[n] = iva
    _decode(result, 0, k, scheme, computed_k, delivered_k, _segment)
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
