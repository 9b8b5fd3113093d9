"""Truncated power-law models for tree indices, with fitting and coding.

The model is pmf(n) proportional to n**(-exponent) on 1..n_max.  Mass is
exact over a dense head (n <= 2**16) and approximated by midpoint integrals
beyond it; all cumulative queries go through the same head+tail machinery,
so encoder and decoder agree exactly.

``fit_zeta`` moment-matches the exponent to an observed mean log2-index by
bisection: the untruncated max-entropy closed form always lands at or below
exponent 1, where the power law is not normalizable, so the truncated-
support fit is what keeps the max-entropy intent well defined.

``zeta_encode`` is one-shot Shannon-Fano-Elias coding (codeword length
within 2 bits of the information content).  Sequences of indices are better
coded jointly through :class:`ArithmeticEncoder` with
:meth:`ZetaModel.quantized_cum`, which amortizes the 2-bit termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import Bits, BitReader, DecodeError

__all__ = ["ZetaModel", "Unfittable", "OutOfRange", "fit_zeta", "zeta_encode", "zeta_decode"]

LN2 = math.log(2.0)
HEAD = 1 << 16
DEFAULT_N_MAX = 1 << 62
CUM_BITS = 48
CUM_ONE = 1 << CUM_BITS
# codewords cap at 49 bits: below pmf ~ 2**-48 the float CDF's ulp could
# make adjacent codeword intervals collide, breaking prefix-freeness
MAX_CODE_LEN = 49
MAX_EXPONENT = 20.0
MIN_EXPONENT = 1.0 + 1e-6

_HEAD_N = np.arange(1, HEAD + 1, dtype=np.float64)
_HEAD_LN = np.log(_HEAD_N)


class Unfittable(ValueError):
    """The observed mean log-index exceeds what the truncated model can reach."""


class OutOfRange(ValueError):
    """Index outside 1..n_max."""


class _Tail:
    """Midpoint-integral tail sums for n > HEAD, numerically stable in the
    exponent-near-1 regime via expm1/log1p."""

    def __init__(self, exponent: float, n_max: int):
        self.eps = exponent - 1.0
        self.ln_lo = math.log(HEAD + 0.5)
        self.ln_hi = math.log(n_max + 0.5)

    def mass(self, ln_a: float, ln_b: float) -> float:
        # integral of x**-(1+eps) over [a, b], endpoints given as logs
        if ln_b <= ln_a:
            return 0.0
        return (
            math.exp(-self.eps * ln_a)
            * -math.expm1(-self.eps * (ln_b - ln_a))
            / self.eps
        )

    def log_moment(self, ln_a: float, ln_b: float) -> float:
        # integral of x**-(1+eps) * ln(x) over [a, b]
        if ln_b <= ln_a:
            return 0.0
        eps = self.eps
        fa = math.exp(-eps * ln_a) * (eps * ln_a + 1.0)
        fb = math.exp(-eps * ln_b) * (eps * ln_b + 1.0)
        return (fa - fb) / (eps * eps)


@dataclass(frozen=True)
class ZetaModel:
    """pmf(n) proportional to n**-exponent over 1..n_max."""

    exponent: float
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self) -> None:
        if not self.exponent > 1.0:
            raise ValueError("exponent must exceed 1")
        if self.n_max <= HEAD:
            raise ValueError(f"n_max must exceed the dense head ({HEAD})")

    @cached_property
    def _tail(self) -> _Tail:
        return _Tail(self.exponent, self.n_max)

    @cached_property
    def _head_weights(self) -> np.ndarray:
        return np.exp(-self.exponent * _HEAD_LN)

    @cached_property
    def _head_cum(self) -> np.ndarray:
        # _head_cum[i] = sum of weights of 1..i; leading zero entry
        out = np.empty(HEAD + 1)
        out[0] = 0.0
        np.cumsum(self._head_weights, out=out[1:])
        return out

    @cached_property
    def _norm(self) -> float:
        t = self._tail
        return float(self._head_cum[-1]) + t.mass(t.ln_lo, t.ln_hi)

    def cdf_before(self, n: int) -> float:
        """Total mass of indices strictly below n (0 for n = 1)."""
        if n < 1:
            raise OutOfRange("indices start at 1")
        if n > self.n_max:
            n = self.n_max + 1
        if n <= HEAD + 1:
            return float(self._head_cum[n - 1]) / self._norm
        t = self._tail
        return (
            float(self._head_cum[-1]) + t.mass(t.ln_lo, math.log(n - 0.5))
        ) / self._norm

    def pmf(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise OutOfRange(f"index {n} outside 1..n_max")
        if n <= HEAD:
            return float(self._head_weights[n - 1]) / self._norm
        return self._tail.mass(math.log(n - 0.5), math.log(n + 0.5)) / self._norm

    def mean_log2(self) -> float:
        """Expected log2 of the index under the model."""
        return _mean_log2(self.exponent, self.n_max)

    def entropy_bits(self) -> float:
        return self.exponent * self.mean_log2() + math.log2(self._norm)

    def search_before(self, target: float) -> int:
        """Largest n with cdf_before(n) <= target (inverse CDF)."""
        if target < 0.0:
            raise ValueError("target must be nonnegative")
        scaled = target * self._norm
        if scaled < float(self._head_cum[-1]):
            n = int(np.searchsorted(self._head_cum, scaled, side="right"))
        else:
            t = self._tail
            y = (scaled - float(self._head_cum[-1])) * t.eps * math.exp(
                t.eps * t.ln_lo
            )
            if y >= -math.expm1(-t.eps * (t.ln_hi - t.ln_lo)):
                n = self.n_max
            else:
                ln_x = t.ln_lo - math.log1p(-y) / t.eps
                n = int(math.exp(ln_x) + 0.5)
        n = min(max(n, 1), self.n_max)
        while n > 1 and self.cdf_before(n) > target:
            n -= 1
        while n < self.n_max and self.cdf_before(n + 1) <= target:
            n += 1
        return n

    def quantized_cum(self, n: int) -> int:
        """cdf_before on a 48-bit integer grid, for arithmetic coding."""
        return int(self.cdf_before(n) * CUM_ONE)

    def search_quantized(self, value: int) -> int:
        """Largest n with quantized_cum(n) <= value."""
        n = self.search_before((value + 1) / CUM_ONE)
        while n > 1 and self.quantized_cum(n) > value:
            n -= 1
        while n < self.n_max and self.quantized_cum(n + 1) <= value:
            n += 1
        return n


def _mean_log2(exponent: float, n_max: int) -> float:
    t = _Tail(exponent, n_max)
    w = np.exp(-exponent * _HEAD_LN)
    z = float(w.sum()) + t.mass(t.ln_lo, t.ln_hi)
    num = float(w @ _HEAD_LN) + t.log_moment(t.ln_lo, t.ln_hi)
    return num / z / LN2


def fit_zeta(log_index_samples, n_max: int = DEFAULT_N_MAX) -> ZetaModel:
    """Moment-match the exponent to the observed mean log2-index.

    Solves E[log2 n] = mean(samples) over exponents in (1, 20] by bisection
    (the model mean is strictly decreasing in the exponent).  Degenerate
    all-ones index streams land on the upper cap; means beyond the truncated
    model's range raise :class:`Unfittable` and callers fall back to delta
    coding.
    """
    samples = np.asarray(log_index_samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(samples).all() or (samples < 0).any():
        raise ValueError("log2-index samples must be finite and nonnegative")
    target = float(samples.mean())
    if target >= _mean_log2(MIN_EXPONENT, n_max):
        raise Unfittable(
            f"mean log2-index {target:.3f} exceeds the truncated model's range"
        )
    if target <= _mean_log2(MAX_EXPONENT, n_max):
        return ZetaModel(MAX_EXPONENT, n_max)
    lo, hi = MIN_EXPONENT, MAX_EXPONENT
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # f(lo) > target >= f(hi): no step moves a bound
            break
        if _mean_log2(mid, n_max) > target:
            lo = mid
        else:
            hi = mid
    return ZetaModel(0.5 * (lo + hi), n_max)


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
    if not 1 <= n <= model.n_max:
        raise OutOfRange(f"index {n} outside 1..n_max")
    value, length = _codeword(model, n)
    return Bits.of(value, length)


def zeta_decode(reader: BitReader, model: ZetaModel) -> int:
    value = 0
    for length in range(1, MAX_CODE_LEN + 1):
        value = (value << 1) | reader.read_bit()
        n = model.search_before(value / (1 << length))
        cand_value, cand_length = _codeword(model, n)
        if cand_length == length and cand_value == value:
            return n
    raise DecodeError("not a zeta codeword")
