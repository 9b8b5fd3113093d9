"""Dimensionwise vector coding with per-dimension overhead accounting.

Each dimension runs the dyadic-split encoder independently under a
lane-separated seed.  Heap indices are serialized two ways: self-delimiting
delta codes per dimension, and a single arithmetic-coded stream under
per-dimension power-law models whose exponents are fitted on a calibration
set of runs.  Joint coding is what makes the fitted models pay off: indices
of low-divergence dimensions cost well under one bit, which no
self-delimiting code can express.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..codecs import (
    ArithmeticDecoder,
    ArithmeticEncoder,
    BitReader,
    Bits,
    PrecisionExhausted,
    Unfittable,
    ZetaModel,
    elias_delta_decode,
    elias_delta_encode,
    fit_zeta,
)
from ..codecs.zeta import CUM_ONE
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
    mean_zeta_info_bits: float  # mean -log2 pmf(index); nan under fallback
    failure: str = ""


@dataclass(frozen=True)
class VectorReport:
    dims: tuple[DimensionReport, ...]
    repeats: int
    delta_total_bits: float  # mean over repeats
    zeta_total_bits: float  # mean over repeats (AC stream + fallback deltas)
    kl_total_bits: float
    log_overhead_total_bits: float
    round_trip_ok: bool


def _code_joint(indices: list[int], models: list[Optional[ZetaModel]]) -> Bits:
    """Arithmetic-code modeled dims jointly, then delta-code the fallback dims."""
    enc = ArithmeticEncoder()
    coded_any = False
    for d, (n, model) in enumerate(zip(indices, models)):
        if model is None:
            continue
        c_lo = model.quantized_cum(n)
        c_hi = model.quantized_cum(n + 1)
        if c_hi <= c_lo:
            raise PrecisionExhausted(
                f"dimension {d}: index {n} below the model's 48-bit resolution"
            )
        enc.encode(c_lo, c_hi, CUM_ONE)
        coded_any = True
    stream = enc.finish() if coded_any else Bits()
    for n, model in zip(indices, models):
        if model is None:
            stream = stream + elias_delta_encode(n)
    return stream


def _decode_joint(
    stream: Bits, models: list[Optional[ZetaModel]]
) -> list[int]:
    reader = BitReader(stream)
    out = [0] * len(models)
    modeled = [d for d, m in enumerate(models) if m is not None]
    if modeled:
        dec = ArithmeticDecoder(reader)
        for d in modeled:
            model = models[d]
            value = dec.decode_target(CUM_ONE)
            n = model.search_quantized(value)
            dec.consume(model.quantized_cum(n), model.quantized_cum(n + 1), CUM_ONE)
            out[d] = n
        reader.advance(dec.bits_consumed())
    for d, m in enumerate(models):
        if m is None:
            out[d] = elias_delta_decode(reader)
    return out


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
    models: list[Optional[ZetaModel]] = []
    failures = [""] * n_dims
    eval_indices = []
    for d, pair in enumerate(pairs):
        # one batch per dimension: the calibration runs, then evaluation run r
        # under seed block r * n_dims + d
        blocks = [derive_seeds(seed, _TAG_CALIB, d, calibration_runs)]
        blocks += [derive_seeds(seed, _TAG_EVAL, r * n_dims + d, 1) for r in range(repeats)]
        runs = encode_batch(pair, SplitRule.DYADIC, np.concatenate(blocks))
        logs = np.log2([float(i) for i in runs.heap_indices[:calibration_runs]])
        try:
            models.append(fit_zeta(logs))
        except Unfittable as err:
            models.append(None)
            failures[d] = f"unfittable: {err}"
        eval_indices.append(runs.heap_indices[calibration_runs:])

    delta_totals = np.empty(repeats)
    zeta_totals = np.empty(repeats)
    round_trip_ok = True
    per_dim_delta = np.zeros((repeats, n_dims))
    per_dim_info = np.full((repeats, n_dims), np.nan)
    per_dim_log2 = np.zeros((repeats, n_dims))
    for r in range(repeats):
        indices = [runs[r] for runs in eval_indices]
        for d, n in enumerate(indices):
            per_dim_delta[r, d] = len(elias_delta_encode(n))
            per_dim_log2[r, d] = math.log2(n)
            if models[d] is not None:
                per_dim_info[r, d] = -math.log2(models[d].pmf(n))
        stream = _code_joint(indices, models)
        if _decode_joint(stream, models) != indices:
            round_trip_ok = False
        delta_totals[r] = per_dim_delta[r].sum()
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
        delta_total_bits=float(delta_totals.mean()),
        zeta_total_bits=float(zeta_totals.mean()),
        kl_total_bits=float(sum(p.dkl_bits for p in pairs)),
        log_overhead_total_bits=float(
            sum(math.log2(p.dkl_bits + 1.0) for p in pairs)
        ),
        round_trip_ok=round_trip_ok,
    )
