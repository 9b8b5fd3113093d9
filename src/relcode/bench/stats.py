"""Nearest-neighbor estimates of the sampling bias of encoder output, in bits."""

from __future__ import annotations

import math

import numpy as np

from ..distributions import Distribution1D

__all__ = ["knn_kl_bits", "kl_bias_estimate"]

_TINY = 1e-300


def knn_kl_bits(x: np.ndarray, y: np.ndarray) -> float:
    """1-nearest-neighbor divergence estimate D(P_x || P_y) in bits.

    Density-ratio estimator for one-dimensional samples: compares each
    x-point's nearest-neighbor distance within its own sample against its
    distance to the other sample.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    n, m = x.size, y.size
    if n < 2 or m < 1:
        raise ValueError("need at least two x points and one y point")
    gaps = np.diff(x)
    rho = np.empty(n)
    rho[0] = gaps[0]
    rho[-1] = gaps[-1]
    if n > 2:
        rho[1:-1] = np.minimum(gaps[:-1], gaps[1:])
    pos = np.searchsorted(y, x)
    left = np.where(pos > 0, x - y[np.maximum(pos - 1, 0)], np.inf)
    right = np.where(pos < m, y[np.minimum(pos, m - 1)] - x, np.inf)
    nu = np.minimum(left, right)
    rho = np.maximum(rho, _TINY)
    nu = np.maximum(nu, _TINY)
    nats = float(np.log(nu / rho).mean()) + math.log(m / (n - 1))
    return nats / math.log(2.0)


def kl_bias_estimate(
    samples: np.ndarray,
    target: Distribution1D,
    n_groups: int = 10,
    seed: int = 0,
) -> tuple[float, float, np.ndarray]:
    """Divergence of the sample law from ``target``, in bits.

    Splits the samples into ``n_groups`` groups, estimates the divergence of
    each against a fresh reference sample drawn from the target, and returns
    (mean, standard error, per-group estimates).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 20 * n_groups:
        raise ValueError("need at least 20 samples per group")
    rng = np.random.default_rng(seed)
    groups = np.array_split(samples, n_groups)
    ests = np.empty(n_groups)
    for g, grp in enumerate(groups):
        ref = target.quantile(rng.random(grp.size))
        ests[g] = knn_kl_bits(grp, ref)
    se = float(ests.std(ddof=1) / math.sqrt(n_groups))
    return float(ests.mean()), se, ests
