"""Benchmark harness: sweeps, sampling-bias estimates, vector coding,
plot-data emission, and the ``bench`` CLI."""

from .config import SweepConfig, CSV_HEADER, BIAS_CSV_HEADER, MODES
from .stats import knn_kl_bits, kl_bias_estimate
from .sweep import run_sweep, check_thresholds, BETA_STEPS
from .vector import encode_vector, VectorReport, DimensionReport
from .plots import emit_plots, SchemaError

__all__ = [
    "SweepConfig",
    "CSV_HEADER",
    "BIAS_CSV_HEADER",
    "MODES",
    "knn_kl_bits",
    "kl_bias_estimate",
    "run_sweep",
    "check_thresholds",
    "BETA_STEPS",
    "encode_vector",
    "VectorReport",
    "DimensionReport",
    "emit_plots",
    "SchemaError",
]
