"""Bit-string primitive: round trips and digests; and the tests' reference
cut, concatenation and XOR (``bitops``)."""

import dataclasses

import pytest
from bitops import cut, join, xor

from d3c.bits import BitString
from d3c.errors import InvalidParameterError


def test_byte_roundtrip():
    data = bytes([0xDE, 0xAD, 0xBE, 0xEF])
    bs = BitString(int.from_bytes(data, "big"), 32)
    assert bs.length == 32
    assert bs.to_bytes() == data


def test_non_byte_length_roundtrip():
    # 12 bits: the final partial byte is padded with 4 low zeros on the way out
    bs = BitString(0xABC, 12)
    assert bs.to_bytes() == bytes([0xAB, 0xC0])
    assert int.from_bytes(bs.to_bytes(), "big") >> 4 == bs.value


def test_value_must_fit():
    with pytest.raises(InvalidParameterError, match="value does not fit in 3 bits"):
        BitString(0b1000, 3)
    with pytest.raises(InvalidParameterError, match="value does not fit in 3 bits"):
        BitString(-1, 3)
    with pytest.raises(InvalidParameterError, match="bit length must be non-negative"):
        BitString(0, -1)


def test_slice_and_join_are_inverse():
    bs = BitString(0b1011001110001111, 16)
    parts = [cut(bs, i, 4) for i in range(0, 16, 4)]
    assert [p.value for p in parts] == [0b1011, 0b0011, 0b1000, 0b1111]
    assert join(parts) == bs


def test_xor_requires_equal_lengths():
    a = BitString(0b1100, 4)
    b = BitString(0b1010, 4)
    assert xor(a, b).value == 0b0110
    assert xor(xor(a, b), b) == a
    with pytest.raises(InvalidParameterError):
        xor(a, BitString(0b1, 1))


def test_slice_bounds_checked():
    bs = BitString(0b1111, 4)
    with pytest.raises(InvalidParameterError):
        cut(bs, 2, 3)


def test_concat():
    a = BitString(0b10, 2)
    b = BitString(0b011, 3)
    assert join([a, b]) == BitString(0b10011, 5)


def test_empty():
    empty = BitString(0, 0)
    assert empty.to_bytes() == b""
    assert join([]) == empty
    assert join([empty, BitString(1, 1)]) == BitString(1, 1)


def test_digest_depends_on_length_and_value():
    a = BitString(0b1010, 4)
    same = BitString(0b1010, 4)
    longer = BitString(0b1010, 5)
    other = BitString(0b1011, 4)
    assert a.digest() == same.digest()
    assert a.digest() != longer.digest()
    assert a.digest() != other.digest()


def test_immutability_and_hash():
    a = BitString(0b1, 1)
    with pytest.raises(AttributeError):
        a.value = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.length = 2
    assert len({a, BitString(0b1, 1)}) == 1
    assert hash(a) == hash((1, 1))
    assert a != BitString(0b1, 2) and a != (1, 1)
