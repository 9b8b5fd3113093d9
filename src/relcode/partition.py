"""Heap indices and intervals of the infinite binary partition tree.

Nodes of the partition tree are addressed by positive heap indices (children
of ``n`` are ``2n`` and ``2n + 1``); the root is index 1 and covers the whole
real line.  The split rules that carve a node's interval into its children
live in the engine's descent step.

Shared endpoints between sibling intervals are tolerated: the proposal is
continuous, so they carry zero mass, and the engine never resamples an
endpoint.  Heap indices are plain Python integers and therefore arbitrary
precision; depth is never silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval", "REAL_LINE", "depth", "path_bits"]


@dataclass(frozen=True)
class Interval:
    """A closed interval of the extended real line; ``lo > hi`` means empty."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def __str__(self) -> str:
        return "(empty)" if self.empty else f"[{self.lo}, {self.hi}]"


REAL_LINE = Interval(-math.inf, math.inf)


def depth(index: int) -> int:
    """Depth of a node; the root (index 1) has depth 0."""
    if index < 1:
        raise ValueError("heap indices start at 1")
    return index.bit_length() - 1


def path_bits(index: int) -> tuple[int, ...]:
    """Branch bits from the root to ``index`` (binary expansion sans leading 1)."""
    if index < 1:
        raise ValueError("heap indices start at 1")
    return tuple(map(int, bin(index)[3:]))
