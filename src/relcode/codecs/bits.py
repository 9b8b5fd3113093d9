"""Immutable bit strings and a consuming reader.

A :class:`Bits` value is one integer and a width, ``(value, nbits)``: bit
``i`` of the string is bit ``nbits - 1 - i`` of ``value``, so the first bit
is the most significant.  Codecs write whole fixed-width fields with
:meth:`Bits.of` and read them back with :meth:`BitReader.read_int`.

Byte packing is MSB-first with zero padding in the final byte; codecs built
on top are prefix-free, so pad bits are never consumed by a decoder.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Bits", "BitReader", "DecodeError"]


class DecodeError(ValueError):
    """A codeword is truncated or malformed."""


class Bits:
    """An immutable string of 0/1 values supporting concatenation."""

    __slots__ = ("_value", "_nbits")

    def __init__(self, bits: Iterable[int] = ()):
        digits = [int(b) for b in bits]
        if any(b not in (0, 1) for b in digits):
            raise ValueError("bits must be 0 or 1")
        self._value = int("".join(map(str, digits)) or "0", 2)
        self._nbits = len(digits)

    @classmethod
    def of(cls, value: int, nbits: int) -> "Bits":
        """The ``nbits``-bit field holding ``value``, most significant bit first."""
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"{value} does not fit in {nbits} bits")
        out = cls.__new__(cls)
        out._value = value
        out._nbits = nbits
        return out

    def to01(self) -> str:
        return bin(self._value | 1 << self._nbits)[3:]

    def __len__(self) -> int:
        return self._nbits

    def __add__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            return NotImplemented
        return Bits.of(other._value | self._value << other._nbits, self._nbits + other._nbits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bits):
            return NotImplemented
        return (self._value, self._nbits) == (other._value, other._nbits)

    def __hash__(self) -> int:
        return hash((self._value, self._nbits))

    def __repr__(self) -> str:
        return f"Bits('{self.to01()}')"

    def to_bytes(self) -> bytes:
        pad = -self._nbits % 8
        return (self._value << pad).to_bytes((self._nbits + pad) // 8, "big")

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int | None = None) -> "Bits":
        if nbits is None:
            nbits = 8 * len(data)
        if nbits > 8 * len(data):
            raise DecodeError("fewer bytes than requested bits")
        return cls.of(int.from_bytes(data, "big") >> (8 * len(data) - nbits), nbits)


class BitReader:
    """Reads bits off a :class:`Bits` value, tracking the position.

    The stream is unpacked once, so a read costs O(1) per bit whatever the
    stream's length.  ``read_bit`` and ``read_int`` raise
    :class:`DecodeError` past the end.  The arithmetic decoder instead peeks
    with :meth:`read_padded`, which returns virtual zero bits beyond the end,
    and its ``finish()`` advances the reader past exactly its codeword.
    """

    def __init__(self, bits: Bits):
        self._text = bits.to01()
        self.pos = 0

    @property
    def remaining(self) -> int:
        return max(len(self._text) - self.pos, 0)

    def read_bit(self) -> int:
        return self.read_int(1)

    def read_int(self, n: int) -> int:
        """The next ``n`` bits as an unsigned integer, first bit most significant."""
        if n > self.remaining:
            raise DecodeError("bit stream exhausted")
        field = self._text[self.pos:self.pos + n]
        self.pos += n
        return int(field or "0", 2)

    def read_padded(self, offset: int, n: int) -> int:
        """The ``n`` bits from ``offset`` past the position, as ``read_int``
        reads them, with zeros past the end; the position stays put."""
        i = self.pos + offset
        field = self._text[i:i + n]
        return int(field or "0", 2) << (n - len(field))

    def advance(self, n: int) -> None:
        self.pos += n
