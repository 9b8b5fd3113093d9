"""Independent reference computations used to freeze expected test values.

Everything here is deliberately dumb and slow: quadrature, grid search,
bisection, and a closure-based implementation of the ruled-out-mass
recursion.  None of it shares code paths with the library's closed forms,
except the zeta model's mean, whose 4,096-term float evaluation reads the
library's head logs and tail integrals.  The zeta head table and CDF below
read the same logs and tail integrals, and build the head table apart from
the model's own, which must match it bit for bit.  ``narrow_per_shift``
renormalizes the arithmetic coder one shift at a time, where the coder
counts its shifts.  ``path_intervals`` replays a code's active intervals by
the decoder's walk; the encoder does not record them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from relcode.codecs import arith, zeta
from relcode.distributions import DistributionPair
from relcode.engine import SplitRule
from relcode.randomness import node_randoms

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Interval:
    """A closed interval of the extended real line; ``lo > hi`` means empty."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")

    @property
    def empty(self) -> bool:
        return self.lo > self.hi


REAL_LINE = Interval(-math.inf, math.inf)


def path_intervals(proposal, rule, seed, heap_index) -> list[Interval]:
    """The active intervals S_0 .. S_D of the code ``heap_index``, by the
    decoder's walk: each node's CDF ends, split at the node's draw (sample)
    or midpoint (dyadic), and mapped through the proposal's quantile.  The
    global rule keeps the whole line at every depth."""
    if rule is SplitRule.GLOBAL:
        return [REAL_LINE] * heap_index.bit_length()
    f_lo, f_hi, node = 0.0, 1.0, 1
    out = [Interval(float(proposal.quantile(f_lo)), float(proposal.quantile(f_hi)))]
    for b in map(int, bin(heap_index)[3:]):
        if rule is SplitRule.SAMPLE:
            f_mid = f_lo + node_randoms(seed, node).u_sample * (f_hi - f_lo)
        else:
            f_mid = 0.5 * (f_lo + f_hi)
        f_lo, f_hi = (f_mid, f_hi) if b else (f_lo, f_mid)
        node = 2 * node + b
        out.append(Interval(float(proposal.quantile(f_lo)), float(proposal.quantile(f_hi))))
    return out


def gaussian_pdf(d, x):
    """Density of the Gaussian ``d`` at ``x`` (scalar or array)."""
    z = (x - d.loc) / d.scale
    return np.exp(-0.5 * z * z) / (d.scale * math.sqrt(2.0 * math.pi))


def gaussian_logpdf(d, x):
    z = (x - d.loc) / d.scale
    return -0.5 * z * z - math.log(d.scale * math.sqrt(2.0 * math.pi))


def _q(pair, x):
    return gaussian_pdf(pair.target, x)


def _p(pair, x):
    return gaussian_pdf(pair.proposal, x)


def _r(pair, x):
    return _q(pair, x) / _p(pair, x)


def _span(pair):
    los = [d.loc - 10 * d.scale for d in (pair.target, pair.proposal)]
    his = [d.loc + 10 * d.scale for d in (pair.target, pair.proposal)]
    return min(los), max(his)


def numeric_kl_bits(pair: DistributionPair) -> float:
    lo, hi = _span(pair)
    val, _ = quad(
        lambda x: _q(pair, x) * (math.log(_r(pair, x)) / LN2),
        lo, hi, limit=400,
    )
    return val


def numeric_residual_mass(pair, lo, hi, level) -> float:
    a, b = _span(pair)
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return 0.0
    val, _ = quad(
        lambda x: max(_q(pair, x) - level * _p(pair, x), 0.0),
        a, b, limit=400,
    )
    return val


def mean_log2(exponent: float) -> float:
    """Expected log2 of the index under the zeta model, every head term summed."""
    eps = exponent - 1.0
    w = np.exp(-exponent * zeta._HEAD_LN)
    m0, m1, _ = zeta._tail_log_moments(eps)
    z = float(w.sum()) + m0
    num = float(w @ zeta._HEAD_LN) + m1
    return num / z / LN2


def head_cum(exponent: float) -> np.ndarray:
    """The zeta model's whole head table: entry i is the left-to-right
    float64 running sum of the weights exp(-exponent * ln n) of 1..i, built
    with the same numpy expressions as the library's head pass."""
    out = np.empty(zeta.HEAD + 1)
    out[0] = 0.0
    w = out[1:]
    np.multiply(zeta._HEAD_LN, -exponent, out=w)
    np.exp(w, out=w)
    np.cumsum(w, out=w)
    return out


def zeta_norm(exponent: float, cum: np.ndarray) -> float:
    """The normalizer from the whole table ``cum = head_cum(exponent)``."""
    width = zeta._LN_HI - zeta._LN_LO
    return float(cum[-1]) + zeta._tail_mass(exponent - 1.0, zeta._LN_LO, width)


def zeta_cdf_before(exponent: float, n: int, cum: np.ndarray) -> float:
    """cdf_before(n) for 1 <= n <= N_MAX + 1, every head sum read from ``cum``."""
    norm = zeta_norm(exponent, cum)
    if n <= zeta.HEAD + 1:
        return float(cum[n - 1]) / norm
    tail = zeta._tail_mass(exponent - 1.0, zeta._LN_LO, math.log(n - 0.5) - zeta._LN_LO)
    return (float(cum[-1]) + tail) / norm


def narrow_per_shift(low, high, c_lo, c_hi, total) -> tuple[int, int, list[int]]:
    """The coder's narrowing and the three renormalization cases of
    docs/FORMAT.md, one shift at a time: the new ends and the amount each
    shift subtracts from both (0, HALF or QUARTER for cases 1, 2 and 3)."""
    span = high - low + 1
    high = low + span * c_hi // total - 1
    low = low + span * c_lo // total
    cuts = []
    while True:
        if high < arith.HALF:
            cut = 0
        elif low >= arith.HALF:
            cut = arith.HALF
        elif low >= arith.QUARTER and high < arith.THREE_QUARTERS:
            cut = arith.QUARTER
        else:
            return low, high, cuts
        cuts.append(cut)
        low = (low - cut) << 1
        high = (high - cut) << 1 | 1


def grid_ratio_argmax(pair, lo=-10.0, hi=10.0, step=1e-4) -> float:
    xs = np.arange(lo, hi, step)
    vals = gaussian_logpdf(pair.target, xs) - gaussian_logpdf(pair.proposal, xs)
    return float(xs[int(np.argmax(vals))])


def bisect_level_edge(pair, level, lo, hi, tol=1e-12) -> float:
    """Root of r(x) - level on [lo, hi] (r monotone on the bracket)."""

    def f(x):
        log_ratio = gaussian_logpdf(pair.target, x) - gaussian_logpdf(pair.proposal, x)
        return log_ratio - math.log(level)

    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
            f_lo = f(mid)
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def ruled_out_after_one_level(pair) -> float:
    """Mass accounted by the first acceptance region: integral of min(r,1) dP."""
    lo, hi = _span(pair)
    val, _ = quad(
        lambda x: min(_r(pair, x), 1.0) * _p(pair, x), lo, hi, limit=400
    )
    return val


class DirectGlobalRecursion:
    """The ruled-out-mass recursion for the trivial (whole-line) partition.

    The accounted-mass density is tracked pointwise on a dense grid and all
    totals come from trapezoid integration, so nothing is shared with the
    library's closed-form level updates.
    """

    def __init__(self, pair: DistributionPair, span: float = 12.0, n: int = 96001):
        self.pair = pair
        self.grid = np.linspace(-span, span, n)
        self.ratio = _r(pair, self.grid)
        self.pw = _p(pair, self.grid)
        self.t = np.zeros(n)
        self.total_ruled = 0.0

    def accept_prob(self, x: float) -> float:
        remaining = 1.0 - self.total_ruled
        if remaining <= 0.0:
            return 1.0
        t_x = float(np.interp(x, self.grid, self.t))
        alpha = min(_r(self.pair, x) - t_x, remaining)
        return max(min(alpha / remaining, 1.0), 0.0)

    def step(self) -> None:
        remaining = 1.0 - self.total_ruled
        alpha = np.clip(np.minimum(self.ratio - self.t, remaining), 0.0, None)
        self.total_ruled += float(np.trapezoid(alpha * self.pw, self.grid))
        self.t += alpha

    def run(self, seed: int, max_steps: int = 100_000) -> tuple[float, int]:
        """Sample/accept with the shared node stream; returns (sample, step)."""
        for d in range(max_steps):
            u = node_randoms(seed, 1 << d)
            x = float(self.pair.proposal.quantile(u.u_sample))
            if u.u_accept <= self.accept_prob(x):
                return x, d
            self.step()
        raise RuntimeError("direct recursion did not terminate")
