"""Relative entropy coding via greedy rejection sampling over partition trees.

Encode a single sample from a target distribution Q using only a proposal P
and shared randomness, at a bit cost close to the KL divergence between
them.  The decoder reconstructs the exact sample from the code and the
shared seed without ever seeing Q.

Layers:

* :mod:`relcode.distributions` - Gaussian target/proposal pairs and their
  density-ratio services.
* :mod:`relcode.randomness` - the shared counter-based per-node stream.
* :mod:`relcode.engine` - the encoder/decoder recursion and heap indices.
* :mod:`relcode.codecs` - bitstream serialization (universal integer codes,
  arithmetic coding, power-law index models).
* :mod:`relcode.bench` - the benchmark harness and ``bench`` CLI.
"""

from .distributions import (
    Distribution1D,
    DistributionPair,
    NoFiniteMode,
    NotUnimodal,
    Unsatisfiable,
    gaussian_pair_for_targets,
)
from .engine import (
    BatchResult,
    InvalidIndex,
    NonTermination,
    RecResult,
    SplitRule,
    decode,
    encode,
    encode_batch,
    path_bits,
    simulate_bound_masses,
)
from .randomness import NodeRandoms, derive_seeds, node_randoms

__version__ = "0.1.0"

__all__ = [
    "Distribution1D",
    "DistributionPair",
    "NoFiniteMode",
    "NotUnimodal",
    "Unsatisfiable",
    "gaussian_pair_for_targets",
    "BatchResult",
    "InvalidIndex",
    "NonTermination",
    "RecResult",
    "SplitRule",
    "decode",
    "encode",
    "encode_batch",
    "simulate_bound_masses",
    "path_bits",
    "NodeRandoms",
    "derive_seeds",
    "node_randoms",
    "__version__",
]
