"""Rule-specific code payloads and the tagged container (format v1).

Payload per rule (depth D, heap index I):

* global:  gamma(D+1); the index is always 2**D.
* dyadic:  gamma(D+1) then I - 2**D as a D-bit field, i.e. the raw path
  bits; with equal-mass splits the path bits are already at their entropy,
  so no modelling helps.
* sample:  gamma(D+1) then the path bits under arithmetic coding, where the
  0-branch probability at each node is that node's sample uniform (the mass
  fraction of the left child).  Both sides replay the uniform from the
  shared stream, so no side information is transmitted.

The container prepends a 4-bit magic and a 2-bit rule tag and is byte-packed
MSB-first; see docs/FORMAT.md for the exact bit-level contract.
"""

from __future__ import annotations

import operator
from typing import Optional

from ..engine import GLOBAL_STEP_CAP, RecResult, SplitRule, path_bits
from ..randomness import MAX_OFFSET_BITS, node_randoms
from .arith import ArithmeticDecoder, ArithmeticEncoder, quantize_p0
from .bits import BitReader, Bits, DecodeError
from .elias import elias_gamma_decode, elias_gamma_encode

__all__ = [
    "serialize",
    "deserialize",
    "encode_payload",
    "decode_payload",
]

_MAGIC = 0b1010
_RULE_TAG = {SplitRule.GLOBAL: 0b00, SplitRule.SAMPLE: 0b01, SplitRule.DYADIC: 0b10}
_TAG_RULE = {tag: rule for rule, tag in _RULE_TAG.items()}


def encode_payload(
    rule: SplitRule, depth: int, heap_index: int, seed: Optional[int] = None
) -> Bits:
    """Write one payload; the inverse of ``decode_payload``."""
    rule = SplitRule(rule)
    if rule is SplitRule.SAMPLE and seed is None:
        raise ValueError("sample-rule payloads need the shared seed")
    depth, heap_index = operator.index(depth), operator.index(heap_index)
    if heap_index.bit_length() - 1 != depth:
        raise ValueError("depth does not match the heap index")
    if rule is SplitRule.GLOBAL and heap_index != 1 << depth:
        raise ValueError("global heap indices are 1 << depth")
    out = elias_gamma_encode(depth + 1)
    if rule is SplitRule.GLOBAL:
        return out
    if rule is SplitRule.DYADIC:
        return out + Bits.of(heap_index - (1 << depth), depth)
    if depth == 0:
        return out
    enc = ArithmeticEncoder()
    node = 1
    for b in path_bits(heap_index):
        c_zero = quantize_p0(node_randoms(seed, node).u_sample)
        enc.encode_bit(b, c_zero)
        node = 2 * node + b
    return out + enc.finish()


def decode_payload(
    reader: BitReader, rule: SplitRule, seed: Optional[int] = None
) -> tuple[int, int]:
    """Read one payload; returns (depth, heap index)."""
    rule = SplitRule(rule)
    if rule is SplitRule.SAMPLE and seed is None:
        raise ValueError("sample-rule payloads need the shared seed")
    depth = elias_gamma_decode(reader) - 1
    if rule is SplitRule.GLOBAL:
        if depth > GLOBAL_STEP_CAP:
            raise DecodeError(f"global depth exceeds {GLOBAL_STEP_CAP}")
        return depth, 1 << depth
    if rule is SplitRule.DYADIC:
        return depth, reader.read_int(depth) | 1 << depth
    if depth == 0:
        return 0, 1
    dec = ArithmeticDecoder(reader)
    node = 1
    for d in range(depth):
        if (node - (1 << d)) >> MAX_OFFSET_BITS:
            raise DecodeError(f"node offset exceeds {MAX_OFFSET_BITS} bits")
        c_zero = quantize_p0(node_randoms(seed, node).u_sample)
        node = 2 * node + dec.decode_bit(c_zero)
    dec.finish()
    return depth, node


def serialize(result: RecResult) -> Bits:
    """Container: magic nibble, 2-bit rule tag, then the rule payload."""
    head = Bits.of(_MAGIC << 2 | _RULE_TAG[result.rule], 6)
    return head + encode_payload(
        result.rule, result.depth, result.heap_index, result.seed
    )


def deserialize(bits: Bits, seed: Optional[int] = None) -> tuple[SplitRule, int, int, int]:
    """Parse one container; returns (rule, depth, heap index, end position)."""
    reader = BitReader(bits)
    if reader.read_int(4) != _MAGIC:
        raise DecodeError("bad magic")
    tag = reader.read_int(2)
    rule = _TAG_RULE.get(tag)
    if rule is None:
        raise DecodeError(f"unknown rule tag {tag:02b}")
    depth, index = decode_payload(reader, rule, seed)
    return rule, depth, index, reader.pos
