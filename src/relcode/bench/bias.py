"""Sampling bias of the depth-limited dyadic coder as its budget grows.

A coder stopped at depth ``d_max`` returns a sample from a law that is not
quite the target.  The study measures that law's divergence from the target,
in bits, with a nearest-neighbor estimator, at budgets of ``round(dkl)``
plus each extra bit, and for the exact (unlimited) coder.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..distributions import Distribution1D, gaussian_pair_for_targets
from ..engine import SplitRule, encode_batch
from ..randomness import derive_seeds

__all__ = ["bias_plan", "bias_study", "check_bias", "knn_kl_bits", "kl_bias_estimate"]

_TAG_BIAS = 13
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


def bias_plan(
    dkl: float,
    dinf: float,
    extra_bits: Sequence[int],
    samples_per_group: int = 200,
    n_groups: int = 10,
):
    """The pair and the budgets ``round(dkl) + extra`` of a bias study.

    Raises ValueError, encoding nothing, for no extra bits, fewer than 20
    samples per group or 2 groups, a negative budget or unattainable targets.
    """
    if not extra_bits:
        raise ValueError("the bias study needs extra_bits")
    if samples_per_group < 20 or n_groups < 2:
        raise ValueError("the bias study needs 20 samples per group and 2 groups")
    budgets = [int(round(dkl)) + extra for extra in extra_bits]
    if min(budgets) < 0:
        raise ValueError(f"budget round(dkl) + extra = {min(budgets)} is negative")
    return gaussian_pair_for_targets(dkl, dinf), budgets


def bias_study(
    dkl: float,
    dinf: float,
    extra_bits: Sequence[int],
    samples_per_group: int = 200,
    n_groups: int = 10,
    seed_base: int = 0,
) -> list[dict]:
    """One CSV row per budget ``round(dkl) + extra``, then one for the exact coder.

    Each row encodes ``samples_per_group * n_groups`` dyadic runs at the
    Gaussian pair hitting (dkl, dinf) and estimates their bias in bits.
    Options that :func:`bias_plan` rejects raise before the first encode.
    """
    pair, budgets = bias_plan(dkl, dinf, extra_bits, samples_per_group, n_groups)
    n = samples_per_group * n_groups
    rows = []
    for extra, d_max in zip((*extra_bits, None), (*budgets, None)):
        block = 1000 if d_max is None else d_max
        seeds = derive_seeds(seed_base, _TAG_BIAS, block, n)
        out = encode_batch(pair, SplitRule.DYADIC, seeds, d_max=d_max)
        ref_seed = int(derive_seeds(seed_base, _TAG_BIAS, 5000 + block, 1)[0])
        bias, se, _ = kl_bias_estimate(
            out.samples, pair.target, n_groups=n_groups, seed=ref_seed
        )
        rows.append({
            "dkl_target": dkl,
            "dinf_target": dinf,
            "variant": SplitRule.DYADIC.value,
            "extra_bits": "exact" if extra is None else str(extra),
            "d_max": "inf" if d_max is None else d_max,
            "samples_per_group": samples_per_group,
            "n_groups": n_groups,
            "bias_bits": bias,
            "se_bias_bits": se,
        })
    return rows


def check_bias(rows: list[dict]) -> list[str]:
    """Bias must not rise with the budget (within 2 SE), and the largest
    budget must land within 3 SE of the exact coder; returns violations."""
    bad: list[str] = []
    numbered = [r for r in rows if r["extra_bits"] != "exact"]
    exact = [r for r in rows if r["extra_bits"] == "exact"][0]
    for a, b in zip(numbered, numbered[1:]):
        tol = 2.0 * math.hypot(a["se_bias_bits"], b["se_bias_bits"])
        if b["bias_bits"] > a["bias_bits"] + tol:
            bad.append(f"bias rose from extra={a['extra_bits']} to {b['extra_bits']}")
    last = numbered[-1]
    tol = 3.0 * math.hypot(last["se_bias_bits"], exact["se_bias_bits"])
    if abs(last["bias_bits"] - exact["bias_bits"]) > tol:
        bad.append("bias at the largest budget is not within 3 SE of exact")
    return bad
