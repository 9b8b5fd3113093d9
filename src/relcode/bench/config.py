"""Benchmark parameterization: sweep modes, CSV schemas and the sweep config."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import SplitRule

__all__ = ["SweepConfig", "MODES", "CSV_HEADER", "BIAS_CSV_HEADER"]

MODES = (
    "runtime_vs_dinf",
    "codelength_vs_dkl",
    "bias_vs_extra_bits",
    "unbiasedness",
)

CSV_HEADER = (
    "dkl_target,dinf_target,variant,n,mean_steps,se_steps,mean_bits,se_bits,"
    "mean_pathcost_bits,se_pathcost_bits,ks_p,reason"
)
BIAS_CSV_HEADER = (
    "dkl_target,dinf_target,variant,extra_bits,d_max,samples_per_group,"
    "n_groups,bias_bits,se_bias_bits"
)

# the global variant's expected step count doubles per bit of infinity
# divergence, so it is skipped above this threshold unless forced
GLOBAL_DINF_CUTOFF = 10.0


@dataclass(frozen=True)
class SweepConfig:
    """One benchmark invocation: mode, divergence grids, run counts."""

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
    out_path: Optional[str] = None
    workers: int = 0
    force_global: bool = False
    extra_bits: tuple[int, ...] = ()
    samples_per_group: int = 200
    n_groups: int = 10

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not self.dkl_grid or not self.dinf_grid:
            raise ValueError("divergence grids must be nonempty")
        if self.seeds_per_point < 100:
            raise ValueError("seeds_per_point must be at least 100")
        if not self.variants:
            raise ValueError("need at least one variant")
        if self.mode == "bias_vs_extra_bits" and not self.extra_bits:
            raise ValueError("bias mode needs extra_bits")

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
