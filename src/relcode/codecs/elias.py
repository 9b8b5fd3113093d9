"""Elias gamma and delta codes for positive integers."""

from __future__ import annotations

import operator

from .bits import Bits, BitReader, DecodeError

__all__ = [
    "elias_gamma_encode",
    "elias_gamma_decode",
    "elias_delta_encode",
    "elias_delta_decode",
    "elias_delta_length",
]


def elias_gamma_encode(n: int) -> Bits:
    """Gamma code: floor(log2 n) zeros, then n in binary."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("gamma codes positive integers only")
    return Bits.of(n, 2 * n.bit_length() - 1)


def elias_gamma_decode(reader: BitReader) -> int:
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 4096:
            raise DecodeError("gamma prefix too long")
    return reader.read_int(zeros) | 1 << zeros


def elias_delta_encode(n: int) -> Bits:
    """Delta code: gamma-coded bit width, then n without its leading 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("delta codes positive integers only")
    width = n.bit_length()
    return elias_gamma_encode(width) + Bits.of(n - (1 << (width - 1)), width - 1)


def elias_delta_length(n: int) -> int:
    """``len(elias_delta_encode(n))``, without building the code."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("delta codes positive integers only")
    width = n.bit_length()
    return width + 2 * width.bit_length() - 2


def elias_delta_decode(reader: BitReader) -> int:
    width = elias_gamma_decode(reader)
    return reader.read_int(width - 1) | 1 << (width - 1)
