"""Integer arithmetic coder with 62-bit registers.

Symbols are cumulative-count intervals ``[c_lo, c_hi)`` out of ``total``;
the binary-symbol convenience methods quantize a probability to 32 bits.
Renormalization is the classic three-case scheme with pending-bit carry
propagation; termination emits two disambiguating bits, so a codeword costs
at most 2 bits over the ideal length.  Encoder and decoder run one narrowing
step, so the decoder knows the exact codeword length (shift count + 2)
without any end marker: any bits it peeks past that boundary do not affect
the decoded symbols.
"""

from __future__ import annotations

from .bits import Bits, BitReader, DecodeError

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "PrecisionExhausted", "quantize_p0"]

PRECISION = 62
FULL = 1 << PRECISION
HALF = FULL >> 1
QUARTER = FULL >> 2
THREE_QUARTERS = HALF + QUARTER
MAX_TOTAL = 1 << 60
_MASK = FULL - 1
_BELOW_TOP = HALF - 1

PROB_BITS = 32
PROB_ONE = 1 << PROB_BITS


class PrecisionExhausted(ArithmeticError):
    """A symbol's probability underflows the coder's integer range."""


def quantize_p0(p_zero: float) -> int:
    """Probability of the 0-bit as a count out of 2**32, clamped off 0 and 1."""
    c = int(p_zero * PROB_ONE)
    return min(max(c, 1), PROB_ONE - 1)


def _narrow(
    low: int, high: int, c_lo: int, c_hi: int, total: int
) -> tuple[int, int, int, int, int]:
    """Narrow ``[low, high]`` to one symbol and renormalize (docs/FORMAT.md).

    Returns the narrowed low end before renormalization, the new ends and
    the number of shifts of each kind.  Cases 1 and 2 come first: they shift
    out the ``emits`` top bits on which the narrowed ends agree.  Then
    ``low = 01...`` and ``high = 10...``, and case 3 shifts out each next bit
    that is 1 in low and 0 in high, ``waits`` times.  The shifted-in bits (0
    in low, 1 in high) never meet either condition, so the counts come from
    the narrowed ends alone.
    """
    if total > MAX_TOTAL:
        raise PrecisionExhausted("total exceeds the register headroom")
    if not 0 <= c_lo < c_hi <= total:
        raise PrecisionExhausted("empty or inverted symbol interval")
    span = high - low + 1
    high = low + span * c_hi // total - 1
    low = narrowed = low + span * c_lo // total
    emits = PRECISION - (low ^ high).bit_length()
    if emits:
        low = low << emits & _MASK
        high = (high << emits | (1 << emits) - 1) & _MASK
    waits = 0
    if low >= QUARTER and high < THREE_QUARTERS:
        waits = PRECISION - 1 - (low & ~high & _BELOW_TOP ^ _BELOW_TOP).bit_length()
        low = low << waits & _BELOW_TOP
        high = HALF | high << waits & _BELOW_TOP | (1 << waits) - 1
    return narrowed, low, high, emits, waits


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
        narrowed, self._low, self._high, emits, waits = _narrow(
            self._low, self._high, c_lo, c_hi, total)
        if emits:
            # the top bits of the narrowed low, the first after the pending run
            self._emit(narrowed >> (PRECISION - 1))
            rest = emits - 1
            self._out = self._out << rest | narrowed >> (PRECISION - emits) & (1 << rest) - 1
            self._nbits += rest
        self._pending += waits

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

    def finish(self) -> Bits:
        """Close the codeword; any continuation of it decodes identically."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        self._pending += 1
        self._emit(0 if self._low < QUARTER else 1)
        return Bits.of(self._out, self._nbits)


class ArithmeticDecoder:
    """Decodes one codeword from a reader's position on.

    The reader stays put while symbols decode; :meth:`finish` then advances
    it past exactly the codeword.  A codeword that would run past the end of
    the stream raises :class:`DecodeError` at the symbol that overruns it.
    """

    def __init__(self, reader: BitReader):
        self._reader = reader
        self._limit = reader.remaining
        self._shifts = 0
        self._low = 0
        self._high = FULL - 1
        self._code = reader.read_padded(0, PRECISION)
        self._check()

    def _check(self) -> None:
        # the encoder emits one bit per shift plus two terminal bits
        if self._shifts + 2 > self._limit:
            raise DecodeError("bit stream exhausted")

    def decode_target(self, total: int) -> int:
        span = self._high - self._low + 1
        value = ((self._code - self._low + 1) * total - 1) // span
        return min(value, total - 1)

    def consume(self, c_lo: int, c_hi: int, total: int) -> None:
        narrowed, self._low, self._high, emits, waits = _narrow(
            self._low, self._high, c_lo, c_hi, total)
        # every shift maps code - low to 2 * (code - low) + the next bit
        shifts = emits + waits
        bits = self._reader.read_padded(PRECISION + self._shifts, shifts)
        self._code = self._low + ((self._code - narrowed) << shifts | bits)
        self._shifts += shifts
        self._check()

    def decode_bit(self, c_zero: int) -> int:
        value = self.decode_target(PROB_ONE)
        if value < c_zero:
            self.consume(0, c_zero, PROB_ONE)
            return 0
        self.consume(c_zero, PROB_ONE, PROB_ONE)
        return 1

    def finish(self) -> None:
        """Advance the reader past the codeword."""
        self._reader.advance(self._shifts + 2)
