"""Benchmark harness: sweeps, sampling-bias study, vector coding and the
``bench`` CLI.  Each study returns rows for ``write_rows``."""

from .bias import bias_study, check_bias, knn_kl_bits, kl_bias_estimate
from .sweep import SweepConfig, CSV_HEADER, MODES, BETA_STEPS
from .sweep import run_sweep, check_thresholds, write_rows
from .vector import encode_vector, VectorReport, DimensionReport

__all__ = [
    "SweepConfig",
    "CSV_HEADER",
    "MODES",
    "run_sweep",
    "check_thresholds",
    "write_rows",
    "BETA_STEPS",
    "bias_study",
    "check_bias",
    "knn_kl_bits",
    "kl_bias_estimate",
    "encode_vector",
    "VectorReport",
    "DimensionReport",
]
