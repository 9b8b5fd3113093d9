"""Truncated power-law models for tree indices, with fitting and coding.

The model is pmf(n) proportional to n**(-exponent) on 1..N_MAX, the fixed
support of the format (N_MAX = 2**62, docs/FORMAT.md).  Mass is
exact over a dense head (n <= 2**16) and approximated by midpoint integrals
beyond it; all cumulative queries go through the same head+tail machinery,
so encoder and decoder agree exactly.

``fit_zeta`` moment-matches the exponent to an observed mean log2-index by
bisection: the untruncated max-entropy closed form always lands at or below
exponent 1, where the power law is not normalizable, so the truncated-
support fit is what keeps the max-entropy intent well defined.  Each
bisection step needs only the sign of ``_mean_log2(mid) - target``.  It takes
that sign from a cheap interval that provably contains the float
``_mean_log2`` returns (``_mean_log2_bounds``: a 31-term head plus Euler-
Maclaurin, widened by a rounding-error analysis of the exact path), and runs
the 65,536-term exact evaluation only when the interval holds the target.
So every step, and the fitted exponent, equals the all-exact bisection's.

``zeta_encode`` is one-shot Shannon-Fano-Elias coding (codeword length
within 2 bits of the information content).  Sequences of indices are better
coded jointly through :class:`ArithmeticEncoder` with
:meth:`ZetaModel.quantized_cum`, which amortizes the 2-bit termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .bits import Bits, BitReader, DecodeError

__all__ = ["ZetaModel", "Unfittable", "OutOfRange", "fit_zeta", "zeta_encode", "zeta_decode"]

LN2 = math.log(2.0)
HEAD = 1 << 16
N_MAX = 1 << 62
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


def _tail_log_moment(eps: float) -> float:
    """Integral of x**-(1+eps) * ln(x) over the whole tail."""
    fa = math.exp(-eps * _LN_LO) * (eps * _LN_LO + 1.0)
    fb = math.exp(-eps * _LN_HI) * (eps * _LN_HI + 1.0)
    return (fa - fb) / (eps * eps)


@dataclass(frozen=True)
class ZetaModel:
    """pmf(n) proportional to n**-exponent over 1..N_MAX."""

    exponent: float

    def __post_init__(self) -> None:
        if not self.exponent > 1.0:
            raise ValueError("exponent must exceed 1")

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
        return float(self._head_cum[-1]) + _tail_mass(self.exponent - 1.0, _LN_LO, _LN_HI)

    def cdf_before(self, n: int) -> float:
        """Total mass of indices strictly below n (0 for n = 1)."""
        if n < 1:
            raise OutOfRange("indices start at 1")
        n = min(n, N_MAX + 1)
        if n <= HEAD + 1:
            return float(self._head_cum[n - 1]) / self._norm
        tail = _tail_mass(self.exponent - 1.0, _LN_LO, math.log(n - 0.5))
        return (float(self._head_cum[-1]) + tail) / self._norm

    def pmf(self, n: int) -> float:
        if not 1 <= n <= N_MAX:
            raise OutOfRange(f"index {n} outside 1..N_MAX")
        if n <= HEAD:
            return float(self._head_weights[n - 1]) / self._norm
        eps = self.exponent - 1.0
        return _tail_mass(eps, math.log(n - 0.5), math.log(n + 0.5)) / self._norm

    def search_before(self, target: float) -> int:
        """Largest n with cdf_before(n) <= target (inverse CDF)."""
        if target < 0.0:
            raise ValueError("target must be nonnegative")
        scaled = target * self._norm
        if scaled < float(self._head_cum[-1]):
            n = int(np.searchsorted(self._head_cum, scaled, side="right"))
        else:
            eps = self.exponent - 1.0
            y = (scaled - float(self._head_cum[-1])) * eps * math.exp(eps * _LN_LO)
            if y >= -math.expm1(-eps * (_LN_HI - _LN_LO)):
                n = N_MAX
            else:
                ln_x = _LN_LO - math.log1p(-y) / eps
                n = int(math.exp(ln_x) + 0.5)
        n = min(max(n, 1), N_MAX)
        while n > 1 and self.cdf_before(n) > target:
            n -= 1
        while n < N_MAX and self.cdf_before(n + 1) <= target:
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
        while n < N_MAX and self.quantized_cum(n + 1) <= value:
            n += 1
        return n


def _mean_log2(exponent: float) -> float:
    eps = exponent - 1.0
    w = np.exp(-exponent * _HEAD_LN)
    z = float(w.sum()) + _tail_mass(eps, _LN_LO, _LN_HI)
    num = float(w @ _HEAD_LN) + _tail_log_moment(eps)
    return num / z / LN2


_U = 2.0**-53  # float64 unit roundoff
# gamma_n = n u / (1 - n u): the error of any n-term float sum or dot,
# relative to the sum of the terms' magnitudes, in any order (Higham, ch. 3)
_GAMMA = HEAD * _U / (1.0 - HEAD * _U)
_EM_CUT = 32  # the head below this is summed term by term
_LN_CUT = math.log(_EM_CUT)
_LN_HEAD = math.log(HEAD)
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)  # B_2k / (2k)!
_EVAL_SLACK = 2e-13  # relative rounding error allowed for the two cheap sums
_PAD = 16 * _U  # the final roundings of both paths


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


def _mean_log2_bounds(exponent: float) -> tuple[float, float]:
    """An interval that contains the float ``_mean_log2(exponent)``.

    For exponents s in [MIN_EXPONENT, MAX_EXPONENT].  The exact path computes
    S0 = sum n**-s and S1 = sum n**-s ln n over n <= HEAD in float64, adds the
    tail integrals and returns (S1 + T1) / (S0 + T0) / ln 2.  Here:

    * S0 and S1 are summed term by term below a = 32 and by Euler-Maclaurin
      over [a, HEAD]: the integrals (in expm1 / series forms that stay exact
      as s -> 1), the endpoint halves and the B_2..B_8 corrections.  The
      remainder is at most the last correction's size,
      2 zeta(8) / (2 pi)**8 |f^(7)(HEAD) - f^(7)(a)|, because f^(8) keeps
      one sign on [a, HEAD]: for f = x**-s always, for f = x**-s ln x
      while ln a > H_8(s) = sum_{j<8} 1/(s+j), and H_8(1) = 2.72 < ln 32.
      It is below 1e-15 relative, and is added to the allowance.
    * The tail values T0, T1 are the exact path's own floats.
    * The exact path's weights are exp(fl(-s fl(ln n))).  With log and exp
      within 8 ulp (16 u; both measure under 1 ulp) and no underflow (the
      smallest weight is 2**-320), each weight is within
      eta = (18 s ln HEAD + 17) u of n**-s, each product with ln n within
      eta + 16 u; the 65,536-term sum and dot, in whatever order numpy and
      BLAS take, add at most gamma_65536 = 7.3e-12 of the total.  So the
      float head sums lie within (eta + gamma) S0 and (eta + 16 u + gamma) S1
      of the true ones, about 7.3e-12 to 7.7e-12 relative.
    * The cheap sums themselves are within _EVAL_SLACK: every term comes from
      a few operations whose arguments are at most s ln HEAD < 222 in size,
      so each is within about 250 u of its value, and the corrections are
      small beside the terms they correct (measured against mpmath: under
      1e-15, so _EVAL_SLACK has a margin of 200).
    * The two tail additions, the division and the division by ln 2 round
      once each in the exact path, and this interval's own evaluation rounds
      a few times more: _PAD.

    Second-order terms are covered by the 1% widening of the first-order sum.
    """
    s = exponent
    s0, s1 = 1.0, 0.0
    for n in range(2, _EM_CUT):
        w = n**-s
        s0 += w
        s1 += w * math.log(n)
    la, lb, width = _LN_CUT, _LN_HEAD, _LN_HEAD - _LN_CUT
    y = (s - 1.0) * width
    scale = math.exp((1.0 - s) * la) * width
    e1 = -math.expm1(-y) / y
    fa, fb = _EM_CUT**-s, HEAD**-s
    s0 += scale * e1 + 0.5 * (fa + fb)
    s1 += scale * (la * e1 + width * _psi(y)) + 0.5 * (fa * la + fb * lb)
    # corrections B_2k/(2k)! (f^(m)(HEAD) - f^(m)(a)) for m = 2k - 1, with
    # f^(m) = -(s)_m x**-s / x**m times 1 and (ln x - H_m(s)) respectively
    rising, harmonic, da, db = 1.0, 0.0, fa, fb
    for j in range(7):
        rising *= s + j
        harmonic += 1.0 / (s + j)
        da /= _EM_CUT
        db /= HEAD
        if j % 2 == 0:
            c = _EM_COEFFS[j // 2] * rising
            c0 = c * (da - db)
            c1 = c * (da * (la - harmonic) - db * (lb - harmonic))
            s0 += c0
            s1 += c1
    eps = s - 1.0
    z = s0 + _tail_mass(eps, _LN_LO, _LN_HI)
    num = s1 + _tail_log_moment(eps)
    # absolute allowances; the last corrections c0, c1 bound the remainders
    rel = ((18.0 * s * lb + 17.0) * _U + _GAMMA + _EVAL_SLACK) * 1.01
    dz = rel * s0 + abs(c0)
    dn = (rel + 16 * _U) * s1 + abs(c1)
    if num <= dn:  # far below MIN_EXPONENT, where T1 has no correct digits
        return -math.inf, math.inf
    return (
        (num - dn) / (z + dz) / LN2 * (1.0 - _PAD),
        (num + dn) / (z - dz) / LN2 * (1.0 + _PAD),
    )


@cache
def _fittable_range() -> tuple[float, float]:
    """The exact mean log2-index at MIN_EXPONENT and at MAX_EXPONENT."""
    return _mean_log2(MIN_EXPONENT), _mean_log2(MAX_EXPONENT)


def fit_zeta(log_index_samples) -> ZetaModel:
    """Moment-match the exponent to the observed mean log2-index.

    Solves E[log2 n] = mean(samples) over exponents in (1, 20] by bisection
    (the model mean is strictly decreasing in the exponent).  Degenerate
    all-ones index streams land on the upper cap; means beyond the truncated
    model's range raise :class:`Unfittable` and callers fall back to delta
    coding.

    A step asks whether ``_mean_log2(mid) > target``.  When the
    interval from ``_mean_log2_bounds`` lies wholly above the target, or at
    or below it, that answers the question for the exact float too; only
    otherwise (about a third of the steps, the last ones) is the exact value
    computed.  The result is the exponent the all-exact bisection returns.
    """
    samples = np.asarray(log_index_samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(samples).all() or (samples < 0).any():
        raise ValueError("log2-index samples must be finite and nonnegative")
    target = float(samples.mean())
    top, bottom = _fittable_range()
    if target >= top:
        raise Unfittable(
            f"mean log2-index {target:.3f} exceeds the truncated model's range"
        )
    if target <= bottom:
        return ZetaModel(MAX_EXPONENT)
    lo, hi = MIN_EXPONENT, MAX_EXPONENT
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # f(lo) > target >= f(hi): no step moves a bound
            break
        f_lo, f_hi = _mean_log2_bounds(mid)
        if f_lo > target or (f_hi > target and _mean_log2(mid) > target):
            lo = mid
        else:
            hi = mid
    return ZetaModel(0.5 * (lo + hi))


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
    value = 0
    for length in range(1, MAX_CODE_LEN + 1):
        value = (value << 1) | reader.read_bit()
        n = model.search_before(value / (1 << length))
        cand_value, cand_length = _codeword(model, n)
        if cand_length == length and cand_value == value:
            return n
    raise DecodeError("not a zeta codeword")
