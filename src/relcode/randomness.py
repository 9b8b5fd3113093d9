"""Deterministic per-node random streams shared by encoder and decoder.

Every node of the partition tree gets three independent uniforms (sample,
accept, branch) as a pure function of ``(seed, heap index)``.  The stream is
counter based: the heap index is decomposed into ``(depth, offset)`` with
``index = 2**depth + offset``, packed into a Philox4x64-10 counter block

    counter = (depth, offset[0:64], offset[64:128], offset[128:192])
    key     = (seed, domain constant)

and the first three 64-bit output words are mapped to [0, 1) by taking their
top 53 bits.  This is bit-exact across platforms, needs no per-node state,
and lets a decoder replay exactly the draws it needs without simulating
rejected branches.  The same primitive (under a different domain constant)
fans a benchmark base seed out into per-run seeds.

One stream, three ways to run the rounds.  Every Philox lane (one counter
block under one key) is independent, so :func:`philox4x64_10` runs up to
``_INT_LANES`` broadcast lanes one at a time on Python ints, more lanes as
numpy uint64 arrays, whose fixed cost per call outweighs the per-lane cost
of ints below about 64 lanes, and from ``2 * _CHUNK_LANES`` lanes as numpy
arrays over near-equal blocks of about ``_CHUNK_LANES`` lanes, whose
temporaries stay in cache.  The numpy rounds do only the work their lanes
differ in: a word that is the same for every lane (the depth of a step,
the zero upper offset words below depth 64, the key's domain) stays a
scalar, and a column of seeds or a row of depths keeps its shape in every
block, so the first round on such words is three array operations, not
about thirty-five; the multiply-high updates its own temporaries in place.
:func:`node_randoms` calls the integer rounds directly, and so does a
one-lane :func:`node_uniforms` (the step of a single code), which maps the
words to floats by the same integer arithmetic (``_units``), with no word
array.  All three give the same words (a counter-based block does not
depend on how lanes are grouped) and the same exact map to floats.  Python
ints do not wrap, so seeds pass :func:`seed_words` and offsets the
``MAX_OFFSET_BITS`` check before any word reaches the rounds.

Encoder and decoder share one seed contract (:func:`seed_words`): a seed is
an integer with ``0 <= seed < 2**64``; any other value raises ValueError
rather than being wrapped into range.

Offsets of 192 bits do not cover every node a run can reach.  Global runs
only ever visit offset 0, and most non-global runs stop at depths far below
192, but a target deep in the proposal's upper tail descends past that:
``N(9, 0.1**2)`` against ``N(0, 1)`` raises ``NonTermination`` ("tree offset
exceeded 192 bits") on each of seeds 0-199 under the sample and dyadic
rules.  ROADMAP item 7 (tail-symmetric interval coordinates) is the planned
fix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_OFFSET_BITS",
    "NodeRandoms",
    "node_randoms",
    "node_uniforms",
    "seed_words",
    "derive_seeds",
    "philox4x64_10",
]

# Philox4x64 multipliers and Weyl key increments (Random123 constants)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# (low half, high half, whole) of each multiplier, for ``_mulhilo``
_M0_WORDS, _M1_WORDS = (tuple(map(np.uint64, (m & 0xFFFFFFFF, m >> 32, m))) for m in (_M0, _M1))
_S11 = np.uint64(11)
_U53_INV = float(2.0**-53)
_MASK64 = (1 << 64) - 1

# domain constants (second key word) keeping node streams and seed
# derivation statistically independent
_DOMAIN_NODE = np.uint64(0x6E6F64652D726E67)
_DOMAIN_SEED = np.uint64(0x736565642D726E67)
_NODE_KEY = int(_DOMAIN_NODE)

MAX_OFFSET_BITS = 192
_INT_LANES = 32  # half the lane count where numpy's rounds start to win
# n numpy lanes run in n // _CHUNK_LANES near-equal blocks, each of fewer
# than 2 * _CHUNK_LANES lanes, whose temporaries stay in cache
_CHUNK_LANES = 8192


@dataclass(frozen=True)
class NodeRandoms:
    """The three uniforms attached to one (seed, heap index) pair."""

    u_sample: float
    u_accept: float
    u_branch: float


def _mulhilo(a_lo, a_hi, a, b):
    """High and low words of ``a * b`` for the constant ``a`` (halves
    ``a_lo``, ``a_hi``) and a uint64 array (or scalar) ``b``: the 32-bit
    schoolbook multiply-high, with no carry lost.  The steps update the
    temporaries made here in place, never ``b``."""
    b_lo = b & _M32
    b_hi = b >> _S32
    t = b_lo * a_hi
    b_lo *= a_lo
    b_lo >>= _S32
    t += b_lo  # a_hi * b_lo + (a_lo * b_lo >> 32)
    mid = t & _M32
    t >>= _S32
    mid += b_hi * a_lo
    mid >>= _S32
    b_hi *= a_hi
    b_hi += t
    b_hi += mid
    return b_hi, a * b


def _rounds_numpy(c0, c1, c2, c3, k0, k1):
    w0, w1 = np.uint64(_W0), np.uint64(_W1)
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(*_M0_WORDS, c0)
            hi1, lo1 = _mulhilo(*_M1_WORDS, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + w0
            k1 = k1 + w1
    return c0, c1, c2, c3


def _rounds_int(c0, c1, c2, c3, k0, k1):
    """One lane on Python ints; every word must already be below 2**64."""
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0 = (k0 + _W0) & _MASK64
        k1 = (k1 + _W1) & _MASK64
    return c0, c1, c2, c3


def philox4x64_10(c0, c1, c2, c3, k0, k1):
    """Philox4x64 with 10 rounds; inputs are uint64 scalars or arrays,
    outputs the four uint64 words broadcast together (scalars for scalars)."""
    lanes = np.broadcast(c0, c1, c2, c3, k0, k1)
    if lanes.size > _INT_LANES:
        return _rounds_chunked(lanes.shape, c0, c1, c2, c3, k0, k1)
    words = np.array([_rounds_int(*map(int, lane)) for lane in lanes], np.uint64)
    return tuple(words.reshape(lanes.size, 4).T.reshape(4, *lanes.shape))


def _rounds_chunked(shape, *args):
    """The numpy rounds over ``n // _CHUNK_LANES`` near-equal blocks of the
    broadcast ``shape``: groups of rows, or column blocks within each row
    when a row spans a block.  One block is one call, whose words return as
    they are; more are written into four preallocated word arrays (one
    ``(4, *shape)`` array raised the batch benchmark's peak RSS by 1 MiB).
    Each word is sliced along its own axes only: a word that is constant
    along an axis (a scalar, a column of seeds, a row of depths) enters
    every block at length 1 there, so the rounds never widen it."""
    blocks = math.prod(shape) // _CHUNK_LANES
    if blocks < 2:
        return _rounds_numpy(*args)
    out = tuple(np.empty(shape, np.uint64) for _ in range(4))
    cols = shape[-1]
    grids = [word.reshape(-1, cols) for word in out]
    views = [_as_grid(a, shape) for a in args]
    rows = grids[0].shape[0]
    row_parts, col_parts = min(rows, blocks), max(1, cols // _CHUNK_LANES)
    for i in range(row_parts):
        row_span = slice(rows * i // row_parts, rows * (i + 1) // row_parts)
        for j in range(col_parts):
            col_span = slice(cols * j // col_parts, cols * (j + 1) // col_parts)
            words = _rounds_numpy(*(
                v[row_span if v.shape[0] > 1 else slice(None),
                  col_span if v.shape[1] > 1 else slice(None)]
                for v in views
            ))
            for grid, word in zip(grids, words):
                grid[row_span, col_span] = word
    return out


def _as_grid(a, shape):
    """Word ``a`` as a 2-D view over the ``(rows, cols)`` grid of ``shape``,
    of length 1 along each grid axis that ``a`` does not vary on."""
    a = np.asarray(a)
    a = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
    if math.prod(a.shape[:-1]) not in (1, math.prod(shape[:-1])):
        # constant along some leading axes but not all: spread it over them
        a = np.broadcast_to(a, shape[:-1] + a.shape[-1:])
    return a.reshape(-1, a.shape[-1])


def _to_unit(word):
    return (word >> _S11) * _U53_INV


def _units(w0, w1, w2, _):
    """The three uniforms of one lane's Python-int words: the top 53 bits
    of each of the first three, as ``_to_unit`` maps a uint64 word."""
    return (w0 >> 11) * _U53_INV, (w1 >> 11) * _U53_INV, (w2 >> 11) * _U53_INV


def node_uniforms(seeds, depths, off_lo, off_mid, off_hi):
    """Vectorized node uniforms from pre-split heap indices.

    ``seeds``, ``depths`` and the three offset words are uint64 arrays (or
    scalars) broadcasting together; returns (u_sample, u_accept, u_branch).
    A word that is the same for every lane may be passed as a scalar, and
    the rounds then never widen it.
    """
    lanes = np.broadcast(seeds, depths, off_lo, off_mid, off_hi)
    if lanes.size == 1:
        # one lane: the integer rounds, mapped to floats as node_randoms does
        seed, *counter = map(int, next(lanes))
        units = _units(*_rounds_int(*counter, seed, _NODE_KEY))
        return tuple(np.array(units).reshape(3, *lanes.shape))
    w0, w1, w2, _ = philox4x64_10(
        np.asarray(depths, dtype=np.uint64),
        np.asarray(off_lo, dtype=np.uint64),
        np.asarray(off_mid, dtype=np.uint64),
        np.asarray(off_hi, dtype=np.uint64),
        np.asarray(seeds, dtype=np.uint64),
        _DOMAIN_NODE,
    )
    return _to_unit(w0), _to_unit(w1), _to_unit(w2)


def seed_words(seeds, what: str = "seed"):
    """Seeds as Philox key words, under the one seed contract.

    Takes one integer (returns an ``np.uint64``; TypeError for another 0-d
    value) or a 1-D sequence or array of integers (returns a uint64 array).
    Raises ValueError for any seed outside ``0 <= seed < 2**64``; none is
    wrapped or masked.  ``what`` names the value in that error, for other
    words under the same contract.
    """
    if isinstance(seeds, (int, np.integer)) or np.ndim(seeds) == 0:
        if not 0 <= (seed := operator.index(seeds)) <= _MASK64:  # TypeError for a non-integer
            raise ValueError(f"{what} {seed} outside 0 <= {what} < 2**64")
        return np.uint64(seed)
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            raise ValueError(f"{what} {seeds.min()} outside 0 <= {what} < 2**64")
        return seeds.astype(np.uint64)
    return np.array([seed_words(operator.index(s), what) for s in seeds], dtype=np.uint64)


def node_randoms(seed: int, index: int) -> NodeRandoms:
    """The uniforms for a single tree node."""
    index = operator.index(index)
    if index < 1:
        raise ValueError("heap indices start at 1")
    d = index.bit_length() - 1
    offset = index - (1 << d)
    if offset >> MAX_OFFSET_BITS:
        raise ValueError(f"node offset exceeds {MAX_OFFSET_BITS} bits")
    counter = (d, offset & _MASK64, (offset >> 64) & _MASK64, offset >> 128)
    return NodeRandoms(*_units(*_rounds_int(*counter, int(seed_words(seed)), _NODE_KEY)))


def derive_seeds(base_seed: int, tag: int, block, n: int) -> np.ndarray:
    """``n`` decorrelated 64-bit run seeds for one benchmark block, or for a
    1-D array of blocks one row of ``n`` per block.  ``tag`` and each block
    lie in ``[0, 2**64)`` like a seed; others raise ValueError."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"negative seed count {n}")
    k0 = seed_words(base_seed)
    w0, _, _, _ = philox4x64_10(
        seed_words(operator.index(tag), "tag"),
        np.asarray(seed_words(block, "block"))[..., None],
        np.arange(n, dtype=np.uint64),
        np.uint64(0),
        k0,
        _DOMAIN_SEED,
    )
    return w0
