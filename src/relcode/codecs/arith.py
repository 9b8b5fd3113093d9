"""Integer arithmetic coder with 62-bit registers.

Symbols are cumulative-count intervals ``[c_lo, c_hi)`` out of ``total``;
the binary-symbol convenience methods quantize a probability to 32 bits.
Renormalization is the classic three-case scheme with pending-bit carry
propagation; termination emits two disambiguating bits, so a codeword costs
at most 2 bits over the ideal length.  The decoder mirrors the encoder's
interval transitions exactly, which lets it report the exact codeword
length (renormalization count + 2) without any end marker: any bits it
peeks past that boundary do not affect the decoded symbols.
"""

from __future__ import annotations

from .bits import Bits, BitReader

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "PrecisionExhausted", "quantize_p0"]

PRECISION = 62
FULL = 1 << PRECISION
HALF = FULL >> 1
QUARTER = FULL >> 2
THREE_QUARTERS = HALF + QUARTER
MAX_TOTAL = 1 << 60

PROB_BITS = 32
PROB_ONE = 1 << PROB_BITS


class PrecisionExhausted(ArithmeticError):
    """A symbol's probability underflows the coder's integer range."""


def quantize_p0(p_zero: float) -> int:
    """Probability of the 0-bit as a count out of 2**32, clamped off 0 and 1."""
    c = int(p_zero * PROB_ONE)
    return min(max(c, 1), PROB_ONE - 1)


class ArithmeticEncoder:
    def __init__(self) -> None:
        self._low = 0
        self._high = FULL - 1
        self._pending = 0
        self._out = 0
        self._nbits = 0
        self._finished = False

    def encode(self, c_lo: int, c_hi: int, total: int) -> None:
        if self._finished:
            raise RuntimeError("encoder already finished")
        if total > MAX_TOTAL:
            raise PrecisionExhausted("total exceeds the register headroom")
        if not 0 <= c_lo < c_hi <= total:
            raise PrecisionExhausted("empty or inverted symbol interval")
        span = self._high - self._low + 1
        self._high = self._low + span * c_hi // total - 1
        self._low = self._low + span * c_lo // total
        self._renorm()

    def encode_bit(self, bit: int, c_zero: int) -> None:
        if bit == 0:
            self.encode(0, c_zero, PROB_ONE)
        else:
            self.encode(c_zero, PROB_ONE, PROB_ONE)

    def _emit(self, bit: int) -> None:
        # ``bit`` followed by ``pending`` copies of its complement
        run = self._pending
        self._out = self._out << (run + 1) | bit << run | (bit ^ 1) * ((1 << run) - 1)
        self._nbits += run + 1
        self._pending = 0

    def _renorm(self) -> None:
        while True:
            if self._high < HALF:
                self._emit(0)
            elif self._low >= HALF:
                self._emit(1)
                self._low -= HALF
                self._high -= HALF
            elif self._low >= QUARTER and self._high < THREE_QUARTERS:
                self._pending += 1
                self._low -= QUARTER
                self._high -= QUARTER
            else:
                return
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def finish(self) -> Bits:
        """Close the codeword; any continuation of it decodes identically."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        self._pending += 1
        self._emit(0 if self._low < QUARTER else 1)
        return Bits.of(self._out, self._nbits)


class ArithmeticDecoder:
    """Decodes from a reader without advancing it; call :meth:`bits_consumed`
    and advance the reader by that much when done."""

    def __init__(self, reader: BitReader):
        self._reader = reader
        self._cursor = 0
        self._shifts = 0
        self._low = 0
        self._high = FULL - 1
        self._code = 0
        for _ in range(PRECISION):
            self._code = (self._code << 1) | self._next()

    def _next(self) -> int:
        bit = self._reader.read_padded(self._cursor)
        self._cursor += 1
        return bit

    def decode_target(self, total: int) -> int:
        span = self._high - self._low + 1
        value = ((self._code - self._low + 1) * total - 1) // span
        return min(value, total - 1)

    def consume(self, c_lo: int, c_hi: int, total: int) -> None:
        if not 0 <= c_lo < c_hi <= total:
            raise PrecisionExhausted("empty or inverted symbol interval")
        span = self._high - self._low + 1
        self._high = self._low + span * c_hi // total - 1
        self._low = self._low + span * c_lo // total
        while True:
            if self._high < HALF:
                pass
            elif self._low >= HALF:
                self._low -= HALF
                self._high -= HALF
                self._code -= HALF
            elif self._low >= QUARTER and self._high < THREE_QUARTERS:
                self._low -= QUARTER
                self._high -= QUARTER
                self._code -= QUARTER
            else:
                return
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._code = (self._code << 1) | self._next()
            self._shifts += 1

    def decode_bit(self, c_zero: int) -> int:
        value = self.decode_target(PROB_ONE)
        if value < c_zero:
            self.consume(0, c_zero, PROB_ONE)
            return 0
        self.consume(c_zero, PROB_ONE, PROB_ONE)
        return 1

    def bits_consumed(self) -> int:
        """Exact codeword length: the encoder emitted one bit per
        renormalization plus two terminal bits."""
        return self._shifts + 2
