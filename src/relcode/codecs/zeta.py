"""Truncated power-law models for tree indices, with fitting and coding.

The model is pmf(n) proportional to n**(-exponent) on 1..N_MAX, the fixed
support of the format (N_MAX = 2**62, docs/FORMAT.md).  Over the head
(n <= 2**12) the weight of n is exp(fl(-exponent * fl(ln n))) and the mass
below n is the float64 running sum of the weights of 1..n-1, left to right;
beyond it, mass comes from midpoint integrals.  The normalizer is the
running sum at 2**12 plus the tail integral.  A model keeps one table, the
4,097 head cdfs (each running sum divided by the normalizer, the division
``cdf_before`` defines), with the head total and the normalizer beside it.
All cumulative queries go through the same head+tail machinery, so encoder
and decoder agree exactly.  Both inverse CDFs are one search on
``cdf_before``: a target below the table's last entry is answered by one
binary search of the table; past it, the search gallops from the head's
end, then bisects, in at most 2 * 62 + 2 evaluations per target.

``fit_zeta`` moment-matches the exponent to an observed mean log2-index:
the untruncated max-entropy closed form always lands at or below exponent
1, where the power law is not normalizable, so the truncated-support fit is
what keeps the max-entropy intent well defined.  Each step evaluates the
model's exact mean and the slope of its log (``_mean_and_slope``: one exp
pass over the 4,096 head terms, their sum and two dots, plus the tail's
incomplete-gamma integrals) and narrows a bracket kept in exponent space.  The
bracket starts at two neighbours of a cached grid of 17 exact means; the
steps are safeguarded Newton steps on u = ln(s - 1) towards ln(mean) =
ln(target), starting from the grid's secant point, with a bisection step
in u wherever a step is not strictly inside the bracket: 4 means per fit on
the bench vector grid, and at most 5 on 4,000 random targets across the
fittable range.  The fit ends at the first exponent whose mean is within a
relative 2**-40 of the target.  The format fixes a model by its exponent
alone (docs/FORMAT.md), so how the exponent was fitted is not part of it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.special import gammainc

from .arith import ArithmeticDecoder, ArithmeticEncoder
from .bits import Bits, BitReader
from .elias import elias_delta_decode, elias_delta_encode

__all__ = ["ZetaModel", "Unfittable", "OutOfRange", "fit_zeta", "encode_joint", "decode_joint"]

LN2 = math.log(2.0)
HEAD = 1 << 12
N_MAX = 1 << 62
CUM_BITS = 48
CUM_ONE = 1 << CUM_BITS
# every modeled index is coded out of CUM_ONE + 1: [CUM_ONE, CUM_ONE + 1)
# escapes an index whose interval on the 48-bit grid is empty
_TOTAL = CUM_ONE + 1
MAX_EXPONENT = 20.0
MIN_EXPONENT = 1.0 + 1e-6

_HEAD_LN = np.log(np.arange(1, HEAD + 1, dtype=np.float64))
_HEAD_LN_SQ = _HEAD_LN * _HEAD_LN


class Unfittable(ValueError):
    """The observed mean log-index exceeds what the truncated model can reach."""


class OutOfRange(ValueError):
    """Index outside 1..N_MAX."""


# midpoint-integral tail over n > HEAD, between these log endpoints
_LN_LO = math.log(HEAD + 0.5)
_LN_HI = math.log(N_MAX + 0.5)


def _tail_mass(eps: float, ln_a: float, width: float) -> float:
    """Integral of x**-(1+eps) over [a, b], given ln(a) and the log width
    ln(b) - ln(a); stable as eps -> 0 via expm1."""
    if width <= 0.0:
        return 0.0
    return math.exp(-eps * ln_a) * -math.expm1(-eps * width) / eps


def _tail_log_moments(eps: float) -> tuple[float, float, float]:
    """Integrals of x**-(1+eps) * ln(x)**k over the whole tail, k = 0, 1, 2.

    With W the tail's log width, y = eps * W and t = ln(x) - _LN_LO, they
    expand in the integrals of e**(-eps t) t**j over [0, W], which are
    j! * gammainc(j + 1, y) / eps**(j + 1) (the regularized lower
    incomplete gamma function): stable as eps -> 0, where closed forms in
    e**-y lose digits to cancellation."""
    width = _LN_HI - _LN_LO
    y = eps * width
    g1, g2, g3 = gammainc((1.0, 2.0, 3.0), y).tolist()
    # (1 - e**-y) / y, gamma(2, y) / y**2 and gamma(3, y) / y**3
    e1, psi, chi = g1 / y, g2 / (y * y), 2.0 * g3 / (y * y * y)
    scale = math.exp(-eps * _LN_LO) * width
    return (
        scale * e1,
        scale * (_LN_LO * e1 + width * psi),
        scale * (_LN_LO * _LN_LO * e1 + width * (2.0 * _LN_LO * psi + width * chi)),
    )


def _head_sums(exponent: float) -> np.ndarray:
    """Entry i is the float64 sum of the weights of 1..i, left to right;
    the weight of n is exp(fl(-exponent * fl(ln n)))."""
    return _running_sums(np.exp(-exponent * _HEAD_LN))


def _running_sums(weights: np.ndarray) -> np.ndarray:
    """The head's running sums (``_head_sums``) from its weights."""
    out = np.empty(HEAD + 1)
    out[0] = 0.0
    np.cumsum(weights, out=out[1:])
    return out


@dataclass(frozen=True)
class ZetaModel:
    """pmf(n) proportional to n**-exponent over 1..N_MAX."""

    exponent: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exponent) and self.exponent > 1.0):
            raise ValueError("exponent must be finite and exceed 1")

    @cached_property
    def _head(self) -> tuple[np.ndarray, float, float]:
        """The head's cdf table (entry n - 1 is cdf_before(n) for n <= HEAD + 1),
        the head total and the normalizer, from one ``_head_sums`` pass."""
        return self._head_from(_head_sums(self.exponent))

    def _head_from(self, cdf: np.ndarray) -> tuple[np.ndarray, float, float]:
        """``_head`` from the head's running sums, divided in place."""
        total = float(cdf[-1])
        norm = total + _tail_mass(self.exponent - 1.0, _LN_LO, _LN_HI - _LN_LO)
        cdf /= norm  # the float division cdf_before defines, once per entry
        return cdf, total, norm

    @property
    def _norm(self) -> float:
        return self._head[2]

    def cdf_before(self, n: int) -> float:
        """Total mass of indices strictly below n (0 for n = 1)."""
        if (n := operator.index(n)) < 1:  # TypeError for a non-integer
            raise OutOfRange("indices start at 1")
        cdf, total, norm = self._head
        if n <= HEAD + 1:
            return float(cdf[n - 1])
        tail = _tail_mass(self.exponent - 1.0, _LN_LO, math.log(min(n, N_MAX + 1) - 0.5) - _LN_LO)
        return (total + tail) / norm

    def pmf(self, n: int) -> float:
        if not 1 <= (n := operator.index(n)) <= N_MAX:  # TypeError for a non-integer
            raise OutOfRange(f"index {n} outside 1..N_MAX")
        if n <= HEAD:
            # numpy's exp, as in _head_sums: math.exp can differ by an ulp
            return float(np.exp(-self.exponent * _HEAD_LN[n - 1])) / self._norm
        # log(n + 0.5) - log(n - 0.5) loses digits, and is 0 from 2**49 on
        width = math.log1p(1.0 / (n - 0.5))
        return _tail_mass(self.exponent - 1.0, math.log(n - 0.5), width) / self._norm

    def search_before(self, target: float) -> int:
        """Largest n with cdf_before(n) <= target (inverse CDF)."""
        if target < 0.0:
            raise ValueError("target must be nonnegative")
        cdf = self._head[0]
        n = int(np.searchsorted(cdf, target, side="right"))
        if n <= HEAD:  # cdf_before(n + 1) = cdf[n] > target
            return n
        return _largest_at_most(self.cdf_before, target, HEAD + 1)

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
_GRID_POINTS = 17


def _mean_and_slope(exponent: float) -> tuple[float, float, np.ndarray]:
    """The model's mean log2-index (the head's 4,096 terms summed in
    float64, plus the tail's incomplete-gamma integrals) and, from the same
    exp pass, the slope of ln(mean) in u = ln(exponent - 1): -Var[ln n] /
    E[ln n] * (exponent - 1), since the derivative of E[ln n] in the
    exponent is -Var[ln n].  Third comes that pass, the head's weights, as
    ``_head_sums`` computes them."""
    eps = exponent - 1.0
    w = np.exp(-exponent * _HEAD_LN)
    m0, m1, m2 = _tail_log_moments(eps)
    z = float(w.sum()) + m0
    num = float(w @ _HEAD_LN) + m1
    mean_ln = num / z
    var = (float(w @ _HEAD_LN_SQ) + m2) / z - mean_ln * mean_ln
    return mean_ln / LN2, -var / mean_ln * eps, w


@cache
def _mean_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents evenly spaced in u = ln(s - 1) from MIN_EXPONENT to
    MAX_EXPONENT (both exact), their u, and their exact means, which fall
    along the grid."""
    u = np.linspace(math.log(MIN_EXPONENT - 1.0), math.log(MAX_EXPONENT - 1.0), _GRID_POINTS)
    exponents = 1.0 + np.exp(u)
    exponents[0], exponents[-1] = MIN_EXPONENT, MAX_EXPONENT
    means = np.array([_mean_and_slope(float(s))[0] for s in exponents])
    return exponents, np.log(exponents - 1.0), means


@cache
def _fittable_range() -> tuple[float, float]:
    """The exact means at MIN_EXPONENT and MAX_EXPONENT, the grid's ends: a
    target at or above the first is :class:`Unfittable`, and one at or below
    the second fits MAX_EXPONENT."""
    means = _mean_grid()[2]
    return float(means[0]), float(means[-1])


def fit_zeta(log_index_samples) -> ZetaModel:
    """Moment-match the exponent to the observed mean log2-index.

    Solves E[log2 n] = mean(samples) over exponents in (1, 20] (the model
    mean is strictly decreasing in the exponent).  Degenerate all-ones index
    streams land on the upper cap; means beyond the truncated model's range
    raise :class:`Unfittable` and callers fall back to delta coding.  Both
    ends are decided by ``_fittable_range``.

    The bracket [lo, hi] starts at the two points of ``_mean_grid`` whose
    means straddle the target (either is returned if its mean is within
    2**-40 of the target), and stays in exponent space.  Each step
    evaluates the exact mean and its slope (``_mean_and_slope``) at one
    exponent s: within a relative 2**-40 of the target, s is returned;
    above it, s becomes lo; below it, hi.  The first s is the secant point
    of the bracket's ends in (u, ln mean), u = ln(s - 1); each next one is
    the Newton step on u towards ln(mean) = ln(target), or the bracket's
    midpoint in u where that step is not strictly inside the bracket (the
    safeguarded Newton of Numerical Recipes' ``rtsafe``).  So the returned
    model's mean is the target to 2**-40 relative, unless the bracket closes
    to adjacent floats first.
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
    exponents, us, means = _mean_grid()
    # means[k - 1] > target >= means[k], with 1 <= k <= _GRID_POINTS - 1
    k = int(np.searchsorted(-means, -target))
    for j in (k - 1, k):
        # a grid mean is a step taken; an end at the root would leave every
        # Newton step from the other side outside the bracket
        if abs(means[j] - target) <= _FIT_TOL * target:
            return ZetaModel(float(exponents[j]))
    lo, hi = float(exponents[k - 1]), float(exponents[k])
    u_lo, u_hi = float(us[k - 1]), float(us[k])
    ln_target = math.log(target)
    g_lo, g_hi = math.log(means[k - 1]) - ln_target, math.log(means[k]) - ln_target
    u = u_lo + g_lo / (g_lo - g_hi) * (u_hi - u_lo)
    while True:
        s = 1.0 + math.exp(min(u, u_hi))  # clamped: exp overflows past u = 709
        if not lo < s < hi:
            s = 1.0 + math.exp(0.5 * (u_lo + u_hi))
            if not lo < s < hi:
                s = 0.5 * (lo + hi)
                if s == lo or s == hi:
                    return ZetaModel(s)
        f, slope, weights = _mean_and_slope(s)
        if abs(f - target) <= _FIT_TOL * target:
            # the model's head table comes from this exp pass, not a second
            model = ZetaModel(s)
            model.__dict__["_head"] = model._head_from(_running_sums(weights))
            return model
        u = math.log(s - 1.0)
        if f > target:
            lo, u_lo = s, u
        else:
            hi, u_hi = s, u
        u -= (math.log(f) - ln_target) / slope


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
