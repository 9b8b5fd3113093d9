"""Benchmark sweeps over divergence grids, with CSV output and checks.

Each grid point constructs a Gaussian pair hitting the requested
(KL, infinity) divergences, runs a batch of encodes per variant, and
measures steps (rejections before acceptance), serialized code bits
(actual codewords, no analytic shortcuts), the raw path cost
-log2 P(S_D), and a KS p-value of the samples against the target.

``run_sweep`` returns one row per point and variant; ``write_rows`` writes
any study's rows as CSV.  Points and variants run in one thread, in grid
order, so output bytes depend only on the config and base seed.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..codecs import encode_payload
from ..distributions import Unsatisfiable, gaussian_pair_for_targets
from ..engine import SplitRule, encode_batch
from ..randomness import derive_seeds

__all__ = [
    "SweepConfig", "MODES", "CSV_HEADER", "run_sweep", "check_thresholds",
    "write_rows", "BETA_STEPS",
]

MODES = ("runtime_vs_dinf", "codelength_vs_dkl", "unbiasedness")

CSV_HEADER = (
    "dkl_target,dinf_target,variant,n,mean_steps,se_steps,mean_bits,se_bits,"
    "mean_pathcost_bits,se_pathcost_bits,ks_p,reason"
)

# the global variant's expected step count doubles per bit of infinity
# divergence, so it is skipped above this threshold unless forced
GLOBAL_DINF_CUTOFF = 10.0

_TAG_RULE = {SplitRule.GLOBAL: 1, SplitRule.SAMPLE: 2, SplitRule.DYADIC: 3}

# step-bound slope for the sample-splitting variant, in steps per bit
BETA_STEPS = 2.0 / math.log2(4.0 / 3.0)
LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class SweepConfig:
    """One grid sweep: mode, divergence grids, run counts; checked on creation."""

    mode: str
    dkl_grid: tuple[float, ...]
    dinf_grid: tuple[float, ...]
    seeds_per_point: int = 4000
    variants: tuple[SplitRule, ...] = (
        SplitRule.GLOBAL,
        SplitRule.SAMPLE,
        SplitRule.DYADIC,
    )
    d_max: Optional[int] = None
    seed_base: int = 0
    force_global: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.dkl_grid or not self.dinf_grid:
            raise ValueError("divergence grids must be nonempty")
        # counts and budgets go through operator.index, as in derive_seeds
        # and encode_batch: TypeError for a non-integer
        if operator.index(self.seeds_per_point) < 100:
            raise ValueError("seeds_per_point must be at least 100")
        if not self.variants:
            raise ValueError("need at least one variant")
        if not all(isinstance(rule, SplitRule) for rule in self.variants):
            raise ValueError("variants must be SplitRule members")
        if self.d_max is not None and operator.index(self.d_max) < 0:
            raise ValueError("d_max must be None or a nonnegative integer")
        self.points()

    def points(self) -> list[tuple[float, float]]:
        """The (dkl, dinf) grid; a length-1 grid broadcasts to the other."""
        dkl, dinf = self.dkl_grid, self.dinf_grid
        if len(dkl) == 1 and len(dinf) > 1:
            dkl = dkl * len(dinf)
        if len(dinf) == 1 and len(dkl) > 1:
            dinf = dinf * len(dkl)
        if len(dkl) != len(dinf):
            raise ValueError("dkl and dinf grids must align (or be length 1)")
        return list(zip(dkl, dinf))


def measure_point(
    config: SweepConfig, block: int, dkl: float, dinf: float, rule: SplitRule
) -> dict:
    """One CSV row: encode the point's runs under ``rule`` and measure them.

    Unsatisfiable and skipped points keep ``n = 0``, NaN measurements and a
    reason.
    """
    row = dict.fromkeys(CSV_HEADER.split(","), math.nan)
    row.update(dkl_target=dkl, dinf_target=dinf, variant=rule.value, n=0, reason="")
    try:
        pair = gaussian_pair_for_targets(dkl, dinf)
    except Unsatisfiable as err:
        return dict(row, reason=f"unsatisfiable: {err}")
    if rule is SplitRule.GLOBAL and dinf > GLOBAL_DINF_CUTOFF and not config.force_global:
        return dict(row, reason="skipped: expected steps ~2^dinf; rerun with force_global")
    n = config.seeds_per_point
    seeds = derive_seeds(config.seed_base, _TAG_RULE[rule], block, n)
    out = encode_batch(pair, rule, seeds, d_max=config.d_max)
    bits = [
        len(encode_payload(rule, d, index, s))
        for d, index, s in zip(out.depths, out.heap_indices, seeds)
    ]
    with np.errstate(divide="ignore"):
        pathcost = -np.log2(np.maximum(out.proposal_mass, 1e-300))
    for name, values in (("steps", out.depths), ("bits", bits), ("pathcost_bits", pathcost)):
        values = np.asarray(values, dtype=np.float64)
        row["mean_" + name] = float(values.mean())
        row["se_" + name] = float(values.std(ddof=1) / np.sqrt(n))
    row["n"] = n
    from scipy.stats import kstest  # about 45 MiB of imports: load on first use

    row["ks_p"] = float(kstest(out.samples, pair.target.cdf).pvalue)
    return row


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def run_sweep(config: SweepConfig) -> list[dict]:
    """One row per grid point and variant, in grid order."""
    return [
        measure_point(config, block, dkl, dinf, rule)
        for block, (dkl, dinf) in enumerate(config.points())
        for rule in config.variants
    ]


def write_rows(rows: list[dict], path: str) -> None:
    """Write nonempty ``rows`` as CSV; the columns are the first row's keys."""
    columns = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def _slope(xs: list[float], ys: list[float]) -> float:
    x = np.asarray(xs)
    y = np.asarray(ys)
    x = x - x.mean()
    return float((x @ y) / (x @ x))


def check_thresholds(config: SweepConfig, rows: list[dict]) -> list[str]:
    """Acceptance-style threshold checks; returns violation messages."""
    bad: list[str] = []
    good = [r for r in rows if not r["reason"]]
    if config.mode == "unbiasedness":
        for r in good:
            if not r["ks_p"] > 1e-3:
                bad.append(
                    f"KS rejects at dkl={r['dkl_target']} variant={r['variant']}"
                )
        return bad

    by_variant: dict = {}
    for r in good:
        by_variant.setdefault(r["variant"], []).append(r)

    for variant in (SplitRule.SAMPLE.value, SplitRule.DYADIC.value):
        rs = by_variant.get(variant, [])
        if config.mode == "runtime_vs_dinf" and len(rs) >= 2:
            m = _slope([r["dinf_target"] for r in rs], [r["mean_steps"] for r in rs])
            if abs(m) >= 0.1:
                bad.append(f"{variant}: runtime slope {m:.3f} steps/bit >= 0.1")
        if config.mode == "codelength_vs_dkl":
            for r in rs:
                dkl = r["dkl_target"]
                bound = dkl + 2.0 * math.log2(dkl + 1.0) + 11.0
                if r["mean_bits"] > bound:
                    bad.append(
                        f"{variant}: mean bits {r['mean_bits']:.2f} > {bound:.2f} "
                        f"at dkl={dkl}"
                    )
                pc_bound = dkl + LOG2_E + 3.0 * r["se_pathcost_bits"]
                if r["mean_pathcost_bits"] > pc_bound:
                    bad.append(
                        f"{variant}: path cost {r['mean_pathcost_bits']:.2f} > "
                        f"{pc_bound:.2f} at dkl={dkl}"
                    )

    for r in by_variant.get(SplitRule.SAMPLE.value, []):
        bound = BETA_STEPS * r["dkl_target"] + 4.0 + 3.0 * r["se_steps"]
        if r["mean_steps"] > bound:
            bad.append(
                f"sample: mean steps {r['mean_steps']:.2f} > {bound:.2f} "
                f"at dkl={r['dkl_target']}"
            )

    if config.mode == "runtime_vs_dinf":
        rs = [
            r for r in by_variant.get(SplitRule.GLOBAL.value, [])
            if 4.0 <= r["dinf_target"] <= 9.0
        ]
        if len(rs) >= 2:
            m = _slope(
                [r["dinf_target"] for r in rs],
                [math.log2(r["mean_steps"]) for r in rs],
            )
            if m < math.log2(1.8):
                bad.append(
                    f"global: runtime grows x{2**m:.2f}/bit, below x1.8"
                )
    return bad
