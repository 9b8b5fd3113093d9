"""Independent reference computations used to freeze expected test values.

Everything here is deliberately dumb and slow: quadrature, grid search,
bisection, and a closure-based implementation of the ruled-out-mass
recursion.  None of it shares code paths with the library's closed forms,
except the zeta model's moments, which read its exact float evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from relcode.codecs import zeta
from relcode.distributions import DistributionPair
from relcode.randomness import node_randoms

LN2 = math.log(2.0)


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


def zeta_mean_log2(model: zeta.ZetaModel) -> float:
    """Expected log2 of the index under the model: the float fit_zeta matches."""
    return zeta._mean_log2(model.exponent)


def zeta_entropy_bits(model: zeta.ZetaModel) -> float:
    """Entropy of the model in bits: exponent * E[log2 n] + log2(normalizer)."""
    return model.exponent * zeta_mean_log2(model) + math.log2(model._norm)


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
