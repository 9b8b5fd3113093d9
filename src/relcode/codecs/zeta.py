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
what keeps the max-entropy intent well defined.  The model mean is never
evaluated term by term.  Each step reads a certified interval around it
(``_mean_log2_bounds``: a 31-term head plus Euler-Maclaurin, widened by a
rounding-error analysis of the 4,096-term float sum) and narrows a bracket
kept in exponent space.  The steps are Illinois steps (modified regula
falsi; Dowell & Jarratt, BIT 11, 1971) on ln(s - 1) towards ln(interval
midpoint) = ln(target), with a bisection step wherever the secant point is
not strictly inside the bracket: about 11 intervals per fit on the bench
vector grid, at most 12.  The fit ends at the first exponent whose interval
contains the target, so the fitted model's mean is the target to within
that interval's width, about 2.8e-12 relative.  The format fixes a model by
its exponent alone (docs/FORMAT.md), so how the exponent was fitted is not
part of it.

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
HEAD = 1 << 12
N_MAX = 1 << 62
CUM_BITS = 48
CUM_ONE = 1 << CUM_BITS
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


_U = 2.0**-53  # float64 unit roundoff
# gamma_n = n u / (1 - n u): the error of any n-term float sum or dot,
# relative to the sum of the terms' magnitudes, in any order (Higham, ch. 3)
_GAMMA = HEAD * _U / (1.0 - HEAD * _U)
_EM_CUT = 32  # the head below this is summed term by term
_EM_HEAD = tuple((n, math.log(n)) for n in range(2, _EM_CUT))
_LN_CUT = math.log(_EM_CUT)
_LN_HEAD = math.log(HEAD)
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)  # B_2k / (2k)!
_EVAL_SLACK = 2e-13  # relative rounding error allowed for the two cheap sums
_PAD = 16 * _U  # the final roundings of both paths


def _mean_log2_bounds(exponent: float) -> tuple[float, float]:
    """An interval that contains the model's mean log2-index as the exact
    path evaluates it (``mean_log2`` in tests/oracles.py, the reference the
    interval is tested against).

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
      At most 2e-15 relative (near s = 2.3), it is added to the allowance.
    * The tail values T0, T1 are the exact path's own floats.
    * The exact path's weights are exp(fl(-s fl(ln n))).  With log and exp
      within 8 ulp (16 u; both measure under 1 ulp) and no underflow (the
      smallest weight is 2**-240), each weight is within
      eta = (18 s ln HEAD + 17) u of n**-s, each product with ln n within
      eta + 16 u; the 4,096-term sum and dot, in whatever order numpy and
      BLAS take, add at most gamma_4096 = 4.5e-13 of the total.  So the
      float head sums lie within (eta + gamma) S0 and (eta + 16 u + gamma) S1
      of the true ones, about 4.7e-13 to 7.9e-13 relative (s = 1 to 20).
    * The cheap sums themselves are within _EVAL_SLACK: every term comes from
      a few operations whose arguments are at most s ln HEAD < 167 in size,
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
    for n, ln_n in _EM_HEAD:
        w = n**-s
        s0 += w
        s1 += w * ln_n
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
def _fittable_range() -> tuple[tuple[float, float], tuple[float, float]]:
    """The certified intervals at MIN_EXPONENT and MAX_EXPONENT: a target at
    or above the first's upper bound is :class:`Unfittable`, one at or below
    the second's lower bound fits MAX_EXPONENT, and the fit starts from both
    intervals' midpoints."""
    return _mean_log2_bounds(MIN_EXPONENT), _mean_log2_bounds(MAX_EXPONENT)


def fit_zeta(log_index_samples) -> ZetaModel:
    """Moment-match the exponent to the observed mean log2-index.

    Solves E[log2 n] = mean(samples) over exponents in (1, 20] (the model
    mean is strictly decreasing in the exponent).  Degenerate all-ones index
    streams land on the upper cap; means beyond the truncated model's range
    raise :class:`Unfittable` and callers fall back to delta coding.  Both
    ends are decided by ``_fittable_range``.

    The bracket [lo, hi] starts at [MIN_EXPONENT, MAX_EXPONENT] and stays in
    exponent space.  Each step reads the certified interval from
    ``_mean_log2_bounds`` at one exponent s: wholly above the target, s
    becomes lo; at or below it, hi; otherwise the interval contains the
    target and s is returned.  s is the Illinois step (regula falsi that
    halves the gap of an end kept twice running) on u = ln(s - 1) towards
    ln(interval midpoint) = ln(target), or the bracket's midpoint where that
    step is not strictly inside the bracket.  So the returned model's mean
    is within the interval's width (about 2.8e-12 relative) of the target,
    unless the bracket closes to adjacent floats first, and no step
    evaluates the 4,096-term mean.
    """
    samples = np.asarray(log_index_samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(samples).all() or (samples < 0).any():
        raise ValueError("log2-index samples must be finite and nonnegative")
    target = float(samples.mean())
    at_min, at_max = _fittable_range()
    if target >= at_min[1]:
        raise Unfittable(
            f"mean log2-index {target:.3f} exceeds the truncated model's range"
        )
    if target <= at_max[0]:
        return ZetaModel(MAX_EXPONENT)
    ln_target = math.log(target)

    def gap(f_lo: float, f_hi: float) -> float:
        return math.log(0.5 * (f_lo + f_hi)) - ln_target

    # the gap falls in s; the ends' gaps have opposite signs unless the
    # target lies in an end's interval (then the steps bisect)
    lo, g_lo, hi, g_hi = MIN_EXPONENT, gap(*at_min), MAX_EXPONENT, gap(*at_max)
    kept = None  # the end the last step left in place
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return ZetaModel(mid)
        if g_lo > 0.0 > g_hi:
            u_lo, u_hi = math.log(lo - 1.0), math.log(hi - 1.0)
            s = 1.0 + math.exp(u_lo + g_lo / (g_lo - g_hi) * (u_hi - u_lo))
            if lo < s < hi:
                mid = s
        f_lo, f_hi = _mean_log2_bounds(mid)
        if f_lo > target:
            lo, g_lo = mid, gap(f_lo, f_hi)
            g_hi *= 0.5 if kept == "hi" else 1.0
            kept = "hi"
        elif f_hi <= target:
            hi, g_hi = mid, gap(f_lo, f_hi)
            g_lo *= 0.5 if kept == "lo" else 1.0
            kept = "lo"
        else:
            return ZetaModel(mid)


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
