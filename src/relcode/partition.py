"""Heap indices of the infinite binary partition tree.

Nodes of the partition tree are addressed by positive heap indices (children
of ``n`` are ``2n`` and ``2n + 1``); the root is index 1 and covers the whole
real line, and a node's depth is ``index.bit_length() - 1``.  The split
rules that carve a node's interval into its children live in the engine's
descent step, and the decoder replays a node's interval from its index.

Shared endpoints between sibling intervals are tolerated: the proposal is
continuous, so they carry zero mass, and the engine never resamples an
endpoint.  Heap indices are plain Python integers of arbitrary precision,
so depth is never silently truncated; the engine's kernel holds a node as
its depth and three uint64 offset words and builds the ints in one function.
"""

from __future__ import annotations

__all__ = ["path_bits"]


def path_bits(index: int) -> tuple[int, ...]:
    """Branch bits from the root to ``index`` (binary expansion sans leading 1)."""
    if index < 1:
        raise ValueError("heap indices start at 1")
    return tuple(map(int, bin(index)[3:]))
