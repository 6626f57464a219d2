"""Reference XOR, concatenation and cut of ``BitString``s, for tests only.

The exchange cuts and XORs plain ints of its own (``d3c.shuffle``); these
are written apart from it, so a test that builds the paper's signals with
them checks the exchange against an independent rule. Bit 0 is the most
significant bit, and concatenation appends on the right.
"""

from collections.abc import Iterable

from d3c.bits import BitString
from d3c.errors import InvalidParameterError


def xor(a: BitString, b: BitString) -> BitString:
    if a.length != b.length:
        raise InvalidParameterError(f"xor length mismatch: {a.length} vs {b.length}")
    return BitString(a.value ^ b.value, a.length)


def join(parts: Iterable[BitString]) -> BitString:
    value, length = 0, 0
    for p in parts:
        value = (value << p.length) | p.value
        length += p.length
    return BitString(value, length)


def cut(x: BitString, start: int, nbits: int) -> BitString:
    """The ``nbits`` bits of x beginning at bit position ``start``."""
    if start < 0 or nbits < 0 or start + nbits > x.length:
        raise InvalidParameterError(f"slice [{start}, {start + nbits}) outside {x.length} bits")
    shift = x.length - start - nbits
    return BitString((x.value >> shift) & ((1 << nbits) - 1), nbits)
