"""Bit-level serialization: universal integer codes, arithmetic coding,
power-law index models and joint index streams (``zeta``), and the rule-tagged container."""

from .bits import Bits, BitReader, DecodeError
from .elias import (
    elias_gamma_encode,
    elias_gamma_decode,
    elias_delta_encode,
    elias_delta_decode,
    elias_delta_length,
)
from .arith import ArithmeticEncoder, ArithmeticDecoder, PrecisionExhausted, quantize_p0
from .zeta import ZetaModel, Unfittable, OutOfRange, fit_zeta
from .zeta import encode_joint, decode_joint
from .stream import (
    serialize,
    deserialize,
    encode_payload,
    decode_payload,
)

__all__ = [
    "Bits",
    "BitReader",
    "DecodeError",
    "elias_gamma_encode",
    "elias_gamma_decode",
    "elias_delta_encode",
    "elias_delta_decode",
    "elias_delta_length",
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "PrecisionExhausted",
    "quantize_p0",
    "ZetaModel",
    "Unfittable",
    "OutOfRange",
    "fit_zeta",
    "encode_joint",
    "decode_joint",
    "serialize",
    "deserialize",
    "encode_payload",
    "decode_payload",
]
