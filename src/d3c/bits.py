"""Fixed-length bit strings with whole-bit slicing, XOR, and concatenation.

Signal payloads and reduce outputs are sized in bits, not bytes (a payload
may be e.g. 12 bits), so every one carries an explicit bit length. Bit 0 is
the most significant bit; concatenation appends on the right.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from .errors import InvalidParameterError


class BitString:
    """Immutable string of ``length`` bits backed by a non-negative int."""

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise InvalidParameterError("bit length must be non-negative")
        if value < 0 or value >> length:
            raise InvalidParameterError(f"value does not fit in {length} bits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def _of(cls, value: int, length: int) -> "BitString":
        """A value the library has just built to fit in ``length`` bits,
        wrapped without the checks of ``__init__``."""
        self = object.__new__(cls)
        _set_value(self, value)
        _set_length(self, length)
        return self

    def to_bytes(self) -> bytes:
        """Big-endian bytes; the final partial byte is padded with low zeros."""
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")

    def xor(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise InvalidParameterError(
                f"xor length mismatch: {self.length} vs {other.length}"
            )
        return BitString(self.value ^ other.value, self.length)

    @classmethod
    def join(cls, parts: Iterable["BitString"]) -> "BitString":
        value, length = 0, 0
        for p in parts:
            value = (value << p.length) | p.value
            length += p.length
        return cls(value, length)

    def slice(self, start: int, nbits: int) -> "BitString":
        """The ``nbits`` bits beginning at bit position ``start``."""
        if start < 0 or nbits < 0 or start + nbits > self.length:
            raise InvalidParameterError(
                f"slice [{start}, {start + nbits}) outside {self.length} bits"
            )
        shift = self.length - start - nbits
        return BitString((self.value >> shift) & ((1 << nbits) - 1), nbits)

    def digest(self) -> str:
        """Short stable hex digest of (length, payload) for trace output."""
        h = hashlib.sha256(self.length.to_bytes(8, "big") + self.to_bytes())
        return h.hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        if self.length <= 32:
            return f"BitString(0b{self.value:0{self.length}b})" if self.length else "BitString(empty)"
        return f"BitString({self.length} bits, {self.digest()})"


_set_value = BitString.value.__set__
_set_length = BitString.length.__set__
