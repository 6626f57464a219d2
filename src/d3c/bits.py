"""Fixed-length bit strings: signal payloads and reduce outputs.

Both are sized in bits, not bytes (a payload may be e.g. 12 bits), so every
one carries an explicit bit length. Bit 0 is the most significant bit. The
exchange cuts and XORs plain ints (``shuffle``); a ``BitString`` only wraps
the result, to compare it, print it or digest it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True, slots=True, repr=False)
class BitString:
    """Immutable string of ``length`` bits backed by a non-negative int."""

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise InvalidParameterError("bit length must be non-negative")
        if self.value < 0 or self.value >> self.length:
            raise InvalidParameterError(f"value does not fit in {self.length} bits")

    def to_bytes(self) -> bytes:
        """Big-endian bytes; the final partial byte is padded with low zeros."""
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")

    def digest(self) -> str:
        """Short stable hex digest of (length, payload) for trace output."""
        h = hashlib.sha256(self.length.to_bytes(8, "big") + self.to_bytes())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        if self.length <= 32:
            return f"BitString(0b{self.value:0{self.length}b})" if self.length else "BitString(empty)"
        return f"BitString({self.length} bits, {self.digest()})"
