"""Truncated power-law models for tree indices, with fitting and coding.

The model is pmf(n) proportional to n**(-exponent) on 1..N_MAX, the fixed
support of the format (N_MAX = 2**62, docs/FORMAT.md).  Over the head
(n <= 2**12) the weight of n is exp(fl(-exponent * fl(ln n))) and the mass
below n is the float64 running sum of the weights of 1..n-1, left to right;
beyond it, mass comes from midpoint integrals.  The normalizer is the
running sum at 2**12 plus the tail integral; a model keeps the 4,097
running sums as one table.  All cumulative queries go through the same
head+tail machinery, so encoder and decoder agree exactly.  Both inverse
CDFs are one search on ``cdf_before``: it gallops from a guess read off the
head table, then bisects, in at most 2 * 62 + 2 evaluations per target.

``fit_zeta`` moment-matches the exponent to an observed mean log2-index:
the untruncated max-entropy closed form always lands at or below exponent
1, where the power law is not normalizable, so the truncated-support fit is
what keeps the max-entropy intent well defined.  Each step evaluates the
model's exact mean (``_mean_log2``: one exp pass over the 4,096 head terms,
their sum and dot, plus the tail integrals) and narrows a bracket kept in
exponent space.  The steps are Illinois steps (modified regula falsi;
Dowell & Jarratt, BIT 11, 1971) on ln(s - 1) towards ln(mean) = ln(target),
with a bisection step wherever the secant point is not strictly inside the
bracket: about 11 means per fit on the bench vector grid, at most 12.  The
fit ends at the first exponent whose mean is within a relative 2**-40 of
the target.  The format fixes a model by its exponent alone
(docs/FORMAT.md), so how the exponent was fitted is not part of it.

``zeta_encode`` is one-shot Shannon-Fano-Elias coding (codeword length
within 2 bits of the information content).  Sequences of indices are better
coded jointly by ``encode_joint`` on the 48-bit grid of ``quantized_cum``,
which amortizes the 2-bit termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .arith import ArithmeticDecoder, ArithmeticEncoder
from .bits import Bits, BitReader, DecodeError
from .elias import elias_delta_decode, elias_delta_encode

__all__ = ["ZetaModel", "Unfittable", "OutOfRange", "fit_zeta", "zeta_encode", "zeta_decode",
           "encode_joint", "decode_joint"]

LN2 = math.log(2.0)
HEAD = 1 << 12
N_MAX = 1 << 62
CUM_BITS = 48
CUM_ONE = 1 << CUM_BITS
# every modeled index is coded out of CUM_ONE + 1: [CUM_ONE, CUM_ONE + 1)
# escapes an index whose interval on the 48-bit grid is empty
_TOTAL = CUM_ONE + 1
# codewords cap at 49 bits: below pmf ~ 2**-48 the float CDF's ulp could
# make adjacent codeword intervals collide, breaking prefix-freeness
MAX_CODE_LEN = 49
MAX_EXPONENT = 20.0
MIN_EXPONENT = 1.0 + 1e-6

_HEAD_LN = np.log(np.arange(1, HEAD + 1, dtype=np.float64))


class Unfittable(ValueError):
    """The observed mean log-index exceeds what the truncated model can reach."""


class OutOfRange(ValueError):
    """Index outside 1..N_MAX."""


# midpoint-integral tail over n > HEAD, between these log endpoints
_LN_LO = math.log(HEAD + 0.5)
_LN_HI = math.log(N_MAX + 0.5)


def _tail_mass(eps: float, ln_a: float, ln_b: float) -> float:
    """Integral of x**-(1+eps) over [a, b], endpoints given as logs; stable
    as eps -> 0 via expm1."""
    if ln_b <= ln_a:
        return 0.0
    return math.exp(-eps * ln_a) * -math.expm1(-eps * (ln_b - ln_a)) / eps


def _psi(y: float) -> float:
    """(1 - e**-y (1 + y)) / y**2 for y > 0, to a few ulp."""
    if y < 0.25:
        # alternating series sum_k (-1)**k (k+1)/(k+2)! y**k: 12 terms leave
        # less than 1e-17, where the closed form loses digits to cancellation
        term, total = 0.5, 0.0
        for k in range(12):
            total += term
            term *= -y * (k + 2) / ((k + 1) * (k + 3))
        return total
    return (-math.expm1(-y) - y * math.exp(-y)) / (y * y)


def _tail_log_moment(eps: float) -> float:
    """Integral of x**-(1+eps) * ln(x) over the whole tail; stable as
    eps -> 0 via expm1 and the series form of ``_psi``."""
    width = _LN_HI - _LN_LO
    y = eps * width
    e1 = -math.expm1(-y) / y
    return math.exp(-eps * _LN_LO) * width * (_LN_LO * e1 + width * _psi(y))


def _head_sums(exponent: float) -> np.ndarray:
    """Entry i is the float64 sum of the weights of 1..i, left to right;
    the weight of n is exp(fl(-exponent * fl(ln n)))."""
    out = np.empty(HEAD + 1)
    out[0] = 0.0
    w = out[1:]
    np.multiply(_HEAD_LN, -exponent, out=w)
    np.exp(w, out=w)
    np.cumsum(w, out=w)
    return out


@dataclass(frozen=True)
class ZetaModel:
    """pmf(n) proportional to n**-exponent over 1..N_MAX."""

    exponent: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exponent) and self.exponent > 1.0):
            raise ValueError("exponent must be finite and exceed 1")

    @cached_property
    def _head(self) -> np.ndarray:
        return _head_sums(self.exponent)

    @cached_property
    def _norm(self) -> float:
        return float(self._head[-1]) + _tail_mass(self.exponent - 1.0, _LN_LO, _LN_HI)

    def cdf_before(self, n: int) -> float:
        """Total mass of indices strictly below n (0 for n = 1)."""
        if n < 1:
            raise OutOfRange("indices start at 1")
        n = min(n, N_MAX + 1)
        if n <= HEAD + 1:
            return float(self._head[n - 1]) / self._norm
        tail = _tail_mass(self.exponent - 1.0, _LN_LO, math.log(n - 0.5))
        return (float(self._head[-1]) + tail) / self._norm

    def pmf(self, n: int) -> float:
        if not 1 <= n <= N_MAX:
            raise OutOfRange(f"index {n} outside 1..N_MAX")
        if n <= HEAD:
            # numpy's exp, as in _head_sums: math.exp can differ by an ulp
            return float(np.exp(-self.exponent * _HEAD_LN[n - 1 : n])[0]) / self._norm
        eps = self.exponent - 1.0
        return _tail_mass(eps, math.log(n - 0.5), math.log(n + 0.5)) / self._norm

    def search_before(self, target: float) -> int:
        """Largest n with cdf_before(n) <= target (inverse CDF)."""
        if target < 0.0:
            raise ValueError("target must be nonnegative")
        # past the head, the guess is its end
        guess = int(np.searchsorted(self._head, target * self._norm, side="right"))
        return _largest_at_most(self.cdf_before, target, guess)

    def quantized_cum(self, n: int) -> int:
        """cdf_before on a 48-bit integer grid, for arithmetic coding."""
        return int(self.cdf_before(n) * CUM_ONE)

    def search_quantized(self, value: int) -> int:
        """Largest n with quantized_cum(n) <= value."""
        # scaling by CUM_ONE is exact, so int(c * CUM_ONE) <= value exactly
        # when c < (value + 1) / CUM_ONE
        return self.search_before(math.nextafter((value + 1) / CUM_ONE, 0.0))


def _largest_at_most(f, target: float, guess: int) -> int:
    """Largest n in 1..N_MAX with f(n) <= target, for nondecreasing f with
    f(1) <= target, in at most 2 * 62 + 2 calls of f."""
    up = f(guess) <= target
    # f(lo) <= target < f(hi), with f(N_MAX + 1) taken as infinite
    lo, hi = (guess, N_MAX + 1) if up else (1, guess)
    step = 1
    while hi - lo > 1:
        probe = lo + step if up else hi - step
        if not lo < probe < hi:  # bracketed: bisect
            probe = (lo + hi) // 2
        step *= 2
        lo, hi = (probe, hi) if f(probe) <= target else (lo, probe)
    return lo


_FIT_TOL = 2.0**-40  # relative distance at which a fitted mean stops the fit


def _mean_log2(exponent: float) -> float:
    """The model's mean log2-index: the head's 4,096 terms summed in
    float64, plus the tail integrals."""
    eps = exponent - 1.0
    w = np.exp(-exponent * _HEAD_LN)
    z = float(w.sum()) + _tail_mass(eps, _LN_LO, _LN_HI)
    num = float(w @ _HEAD_LN) + _tail_log_moment(eps)
    return num / z / LN2


@cache
def _fittable_range() -> tuple[float, float]:
    """The exact means at MIN_EXPONENT and MAX_EXPONENT: a target at or
    above the first is :class:`Unfittable`, one at or below the second fits
    MAX_EXPONENT, and the fit's first step starts from both."""
    return _mean_log2(MIN_EXPONENT), _mean_log2(MAX_EXPONENT)


def fit_zeta(log_index_samples) -> ZetaModel:
    """Moment-match the exponent to the observed mean log2-index.

    Solves E[log2 n] = mean(samples) over exponents in (1, 20] (the model
    mean is strictly decreasing in the exponent).  Degenerate all-ones index
    streams land on the upper cap; means beyond the truncated model's range
    raise :class:`Unfittable` and callers fall back to delta coding.  Both
    ends are decided by ``_fittable_range``.

    The bracket [lo, hi] starts at [MIN_EXPONENT, MAX_EXPONENT] and stays in
    exponent space.  Each step evaluates the exact mean ``_mean_log2`` at
    one exponent s: within a relative 2**-40 of the target, s is returned;
    above it, s becomes lo; below it, hi.  s is the Illinois step (regula
    falsi that halves the gap of an end kept twice running) on
    u = ln(s - 1) towards ln(mean) = ln(target), or the bracket's midpoint
    where that step is not strictly inside the bracket.  So the returned
    model's mean is the target to 2**-40 relative, unless the bracket
    closes to adjacent floats first.
    """
    samples = np.asarray(log_index_samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(samples).all() or (samples < 0).any():
        raise ValueError("log2-index samples must be finite and nonnegative")
    target = float(samples.mean())
    at_min, at_max = _fittable_range()
    if target >= at_min:
        raise Unfittable(
            f"mean log2-index {target:.3f} exceeds the truncated model's range"
        )
    if target <= at_max:
        return ZetaModel(MAX_EXPONENT)
    ln_target = math.log(target)
    # the gap ln(mean) - ln(target) falls in s: positive at lo, negative at
    # hi, or zero at a range end an ulp from the target (then a step bisects)
    lo, g_lo = MIN_EXPONENT, math.log(at_min) - ln_target
    hi, g_hi = MAX_EXPONENT, math.log(at_max) - ln_target
    kept = None  # the end the last step left in place
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return ZetaModel(mid)
        u_lo, u_hi = math.log(lo - 1.0), math.log(hi - 1.0)
        s = 1.0 + math.exp(u_lo + g_lo / (g_lo - g_hi) * (u_hi - u_lo))
        if lo < s < hi:
            mid = s
        f = _mean_log2(mid)
        if abs(f - target) <= _FIT_TOL * target:
            return ZetaModel(mid)
        if f > target:
            lo, g_lo = mid, math.log(f) - ln_target
            g_hi *= 0.5 if kept == "hi" else 1.0
            kept = "hi"
        else:
            hi, g_hi = mid, math.log(f) - ln_target
            g_lo *= 0.5 if kept == "lo" else 1.0
            kept = "lo"


def _codeword(model: ZetaModel, n: int) -> tuple[int, int]:
    p = model.pmf(n)
    if not p > 0.0:
        raise OutOfRange(f"index {n} has vanishing mass under the model")
    length = math.ceil(-math.log2(p)) + 1
    if length > MAX_CODE_LEN:
        raise OutOfRange(f"index {n} needs more than {MAX_CODE_LEN} code bits")
    z = model.cdf_before(n) + 0.5 * p
    value = min(int(z * (1 << length)), (1 << length) - 1)
    return value, length


def zeta_encode(n: int, model: ZetaModel) -> Bits:
    """Shannon-Fano-Elias codeword for ``n`` under the model (prefix-free)."""
    if not 1 <= n <= N_MAX:
        raise OutOfRange(f"index {n} outside 1..N_MAX")
    value, length = _codeword(model, n)
    return Bits.of(value, length)


def zeta_decode(reader: BitReader, model: ZetaModel) -> int:
    """Read one codeword.  A longer prefix maps to a candidate index no
    smaller, whose codeword is no shorter, so the decoder reads straight on
    to each candidate's codeword length."""
    value, length, want = 0, 0, 1
    while want <= MAX_CODE_LEN:
        value = (value << (want - length)) | reader.read_int(want - length)
        length = want
        n = model.search_before(value / (1 << length))
        try:
            cand_value, cand_length = _codeword(model, n)
        except OutOfRange as exc:
            # a codeword's prefixes map to indices no larger than its own,
            # and the pmf falls in n, so no codeword extends this prefix
            raise DecodeError("not a zeta codeword") from exc
        if cand_length == length and cand_value == value:
            return n
        want = max(cand_length, length + 1)
    raise DecodeError("not a zeta codeword")


def encode_joint(indices: list[int], models: list[ZetaModel | None]) -> Bits:
    """Arithmetic-code modeled dims jointly, then delta-code the fallback
    dims (model None) and the escaped indices, in dimension order."""
    if len(indices) != len(models):
        raise ValueError("need one model (or None) per index")
    enc = ArithmeticEncoder()
    delta = []
    for n, model in zip(indices, models):
        if model is None:
            delta.append(n)
            continue
        c_lo, c_hi = model.quantized_cum(n), model.quantized_cum(n + 1)
        if c_lo == c_hi:
            c_lo, c_hi = CUM_ONE, _TOTAL
            delta.append(n)
        enc.encode(c_lo, c_hi, _TOTAL)
    stream = enc.finish() if any(m is not None for m in models) else Bits()
    for n in delta:
        stream = stream + elias_delta_encode(n)
    return stream


def decode_joint(stream: Bits, models: list[ZetaModel | None]) -> list[int]:
    """The indices ``encode_joint`` coded under the same models."""
    reader = BitReader(stream)
    out = [0] * len(models)  # 0 until decoded: the delta codes fill the rest
    modeled = [d for d, m in enumerate(models) if m is not None]
    if modeled:
        dec = ArithmeticDecoder(reader)
        for d in modeled:
            model = models[d]
            value = dec.decode_target(_TOTAL)
            if value >= CUM_ONE:
                dec.consume(CUM_ONE, _TOTAL, _TOTAL)
                continue
            n = model.search_quantized(value)
            dec.consume(model.quantized_cum(n), model.quantized_cum(n + 1), _TOTAL)
            out[d] = n
        dec.finish()
    return [n or elias_delta_decode(reader) for n in out]
