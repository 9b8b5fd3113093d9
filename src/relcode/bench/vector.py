"""Dimensionwise vector coding with per-dimension overhead accounting.

Each dimension runs the dyadic-split encoder independently under a
lane-separated seed, and the runs of all dimensions share one batch.  Heap
indices are serialized two ways: self-delimiting delta codes per dimension,
and one joint index stream (``codecs/zeta.py``'s ``encode_joint``) under
per-dimension power-law models fitted on a calibration set of runs.  Joint
coding makes the fitted models pay off: indices of low-divergence dimensions
cost well under one bit, which no self-delimiting code can express.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..codecs import (
    Unfittable,
    ZetaModel,
    decode_joint,
    elias_delta_length,
    encode_joint,
    fit_zeta,
)
from ..distributions import DistributionPair
from ..engine import SplitRule, encode_batch
from ..randomness import derive_seeds

__all__ = ["DimensionReport", "VectorReport", "encode_vector"]

_TAG_CALIB = 10
_TAG_EVAL = 11


@dataclass(frozen=True)
class DimensionReport:
    dim: int
    kl_bits: float
    log_overhead_bits: float  # log2(kl + 1)
    fitted_exponent: Optional[float]  # None means delta fallback
    mean_log2_index: float
    mean_delta_bits: float
    mean_zeta_info_bits: float  # mean -log2 pmf(index); inf at zero pmf, nan under fallback
    failure: str = ""


@dataclass(frozen=True)
class VectorReport:
    dims: tuple[DimensionReport, ...]
    repeats: int
    delta_total_bits: float  # mean over repeats
    zeta_total_bits: float  # mean over repeats (AC stream + delta codes)
    kl_total_bits: float
    log_overhead_total_bits: float
    round_trip_ok: bool


def encode_vector(
    pairs: Sequence[DistributionPair],
    seed: int,
    calibration_runs: int = 256,
    repeats: int = 1,
) -> VectorReport:
    """Code one synthetic vector (``repeats`` times) and account the bits."""
    n_dims = len(pairs)
    if n_dims == 0:
        raise ValueError("need at least one dimension")
    if calibration_runs < 1 or repeats < 1:
        raise ValueError("need at least one calibration run and one repeat")
    # one batch: the calibration runs of every dimension, dimension by
    # dimension, then evaluation run r of dimension d under seed block
    # r * n_dims + d, repeat by repeat
    dims = np.arange(n_dims)
    seeds = np.concatenate([
        derive_seeds(seed, _TAG_CALIB, dims, calibration_runs).ravel(),
        derive_seeds(seed, _TAG_EVAL, np.arange(repeats * n_dims), 1).ravel(),
    ])
    run_dims = np.concatenate([np.repeat(dims, calibration_runs), np.tile(dims, repeats)])
    heap_indices = encode_batch((pairs, run_dims), SplitRule.DYADIC, seeds).heap_indices
    n_calib = n_dims * calibration_runs
    # one conversion for every calibration index; numpy rounds a Python int
    # to float64 as float() does
    calib_log2 = np.log2(np.array(heap_indices[:n_calib], dtype=np.float64))
    models: list[Optional[ZetaModel]] = []
    failures = [""] * n_dims
    for d in range(n_dims):
        try:
            models.append(fit_zeta(calib_log2[d * calibration_runs:(d + 1) * calibration_runs]))
        except Unfittable as err:
            models.append(None)
            failures[d] = f"unfittable: {err}"

    zeta_totals = np.empty(repeats)
    round_trip_ok = True
    per_dim_delta = np.zeros((repeats, n_dims))
    per_dim_info = np.full((repeats, n_dims), np.nan)
    per_dim_log2 = np.zeros((repeats, n_dims))
    for r in range(repeats):
        indices = heap_indices[n_calib + r * n_dims:n_calib + (r + 1) * n_dims]
        for d, n in enumerate(indices):
            per_dim_delta[r, d] = elias_delta_length(n)
            per_dim_log2[r, d] = math.log2(n)
            if models[d] is not None:
                p = models[d].pmf(n)
                per_dim_info[r, d] = -math.log2(p) if p > 0.0 else math.inf
        stream = encode_joint(indices, models)
        if decode_joint(stream, models) != indices:
            round_trip_ok = False
        zeta_totals[r] = len(stream)

    dims = tuple(
        DimensionReport(
            dim=d,
            kl_bits=pairs[d].dkl_bits,
            log_overhead_bits=math.log2(pairs[d].dkl_bits + 1.0),
            fitted_exponent=None if models[d] is None else models[d].exponent,
            mean_log2_index=float(per_dim_log2[:, d].mean()),
            mean_delta_bits=float(per_dim_delta[:, d].mean()),
            mean_zeta_info_bits=float(per_dim_info[:, d].mean()),
            failure=failures[d],
        )
        for d in range(n_dims)
    )
    return VectorReport(
        dims=dims,
        repeats=repeats,
        delta_total_bits=float(per_dim_delta.sum(axis=1).mean()),
        zeta_total_bits=float(zeta_totals.mean()),
        kl_total_bits=float(sum(p.dkl_bits for p in pairs)),
        log_overhead_total_bits=float(
            sum(math.log2(p.dkl_bits + 1.0) for p in pairs)
        ),
        round_trip_ok=round_trip_ok,
    )
