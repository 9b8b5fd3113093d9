"""Greedy rejection encoder/decoder over partition trees.

The encoder walks the partition tree: at each node it draws a sample from
the proposal restricted to the active interval, accepts it with a clipped
density-ratio probability, and on rejection descends into one child,
raising a running acceptance level so that already-ruled-out target mass is
never counted twice.  The code for an accepted sample is the node's heap
index.  The decoder never sees the target distribution: it replays the
root-to-node path from the heap index and the shared per-node random
stream, reconstructing the same restricted-quantile draw bit for bit.

State bookkeeping follows the level formulation: with level ``L_d`` and
ruled-out mass ``T_d`` (``L_0 = T_0 = 0``),

    accept prob at x:  clip(P(S_d) * (r(x) - L_d) / (1 - T_d), 0, 1)
    L_{d+1} = L_d + (1 - T_d) / P(S_d)
    T_{d+1} = 1 - [Q - L_{d+1} P](S_{d+1} intersected with {r >= L_{d+1}})

which keeps ``1 - T_d`` equal to the residual mass of the active interval
at the current level for any split rule.

Interval endpoints are tracked in CDF coordinates (``f_lo``, ``f_hi``) by
the exact same float expressions on both encoder and decoder, which is what
makes the replay bit-exact.  One kernel, vectorized across runs, carries
every encode: each step is a draw (``_draw``), the clipped accept test
(``_accept_prob``) and, on rejection, the level raise and descent
(``_branch_arrays``).  ``encode`` is the single-run wrapper around it and
``simulate_bound_masses`` runs its draws and descents with no accept test.

The global rule keeps the whole line active, so its runs share one level
sequence and need no per-run interval state; ``_run_global`` tests a window
of steps at once and computes the levels each call needs, no deeper than its
deepest run.  The module holds no mutable state, so concurrent calls (the
sweep's thread pool) need no locks.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import DistributionPair, Distribution1D, NoFiniteMode
from .partition import Interval, REAL_LINE, path_bits
from .randomness import node_randoms, node_uniforms, seed_words

__all__ = [
    "SplitRule",
    "RecResult",
    "BatchResult",
    "NonTermination",
    "InvalidIndex",
    "encode",
    "encode_batch",
    "decode",
    "simulate_bound_masses",
]

HARD_STEP_CAP = 10**6
# the global rule's step distribution has a polynomial tail (hazard ~ 3/d),
# so very deep legitimate runs occur in large batches; its cap is wider
GLOBAL_STEP_CAP = 10**8
_DEGENERATE_EPS = 1e-12


class SplitRule(str, enum.Enum):
    """How the active interval is split after a rejection."""

    GLOBAL = "global"
    SAMPLE = "sample"
    DYADIC = "dyadic"


class NonTermination(RuntimeError):
    """The encoder exceeded the hard step cap (contract violation upstream)."""


class InvalidIndex(ValueError):
    """A decoded path bit leads into an empty or zero-mass interval."""


@dataclass(frozen=True)
class RecResult:
    """Output of one encode: the accepted sample and its tree address.

    ``accepted`` is False only for depth-limited runs that hit the step
    budget.  ``bound_trace`` holds the active intervals S_0 .. S_depth.
    """

    sample: float
    heap_index: int
    depth: int
    accepted: bool
    rule: SplitRule
    seed: int
    proposal_mass: float
    bound_trace: tuple[Interval, ...]


@dataclass(frozen=True)
class BatchResult:
    """Vectorized encode outputs, aligned with the input seed order."""

    samples: np.ndarray
    depths: np.ndarray
    heap_indices: list
    accepted: np.ndarray
    proposal_mass: np.ndarray


def _check_rule(pair: DistributionPair, rule: SplitRule) -> None:
    """Reject a pair the rule cannot code before the first step."""
    if rule is SplitRule.SAMPLE and not pair.has_finite_mode:
        raise NoFiniteMode("sample splitting needs a finite ratio mode")
    pair.check_unimodal()


class _BatchState:
    """Per-run arrays for the alive subset of a vectorized encode."""

    def __init__(self, n: int, seeds: np.ndarray):
        self.seeds = seeds
        self.lo = np.full(n, -np.inf)
        self.hi = np.full(n, np.inf)
        self.f_lo = np.zeros(n)
        self.f_hi = np.ones(n)
        self.level = np.zeros(n)
        self.ruled = np.zeros(n)
        self.k_lo = np.zeros(n, np.uint64)
        self.k_mid = np.zeros(n, np.uint64)
        self.k_hi = np.zeros(n, np.uint64)

    def take(self, rows: np.ndarray) -> _BatchState:
        """A new state holding the selected runs; ``self`` is left intact."""
        new = object.__new__(_BatchState)
        new.__dict__ = {name: arr[rows] for name, arr in vars(self).items()}
        return new

    def heap_index(self, i: int, depth: int) -> int:
        offset = (
            (int(self.k_hi[i]) << 128)
            | (int(self.k_mid[i]) << 64)
            | int(self.k_lo[i])
        )
        return (1 << depth) + offset

    def heap_indices(self, rows: np.ndarray, depth: int) -> list:
        """Heap indices (Python ints) of the runs ``rows`` (a boolean mask)
        at ``depth``.  Below depth 64 the offset is ``k_lo`` alone, so the
        index is one array op: ``(1 << depth) | k_lo``."""
        if depth < 64:
            return (self.k_lo[rows] | np.uint64(1 << depth)).tolist()
        return [self.heap_index(i, depth) for i in np.flatnonzero(rows)]


def _draw(pair: DistributionPair, st: _BatchState, d: int):
    """Node draw at depth ``d`` for every run: the proposal restricted to the
    active interval, sampled by its quantile.

    Returns ``(x, t, mass, u_accept, u_branch)`` with ``t`` the draw's CDF
    coordinate and ``mass`` the interval's proposal mass.
    """
    u_s, u_a, u_b = node_uniforms(st.seeds, np.uint64(d), st.k_lo, st.k_mid, st.k_hi)
    mass = st.f_hi - st.f_lo
    t = st.f_lo + u_s * mass
    return pair.proposal.quantile(t), t, mass, u_a, u_b


def _accept_prob(pair: DistributionPair, x, level, resid, mass):
    """Clipped acceptance probability ``clip(mass * (r(x) - level) / resid, 0, 1)``.

    Returns 1 where the residual mass is exhausted to machine precision
    (``resid <= 1e-12``): the accept-immediately convention.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.exp(pair.log_ratio_nats(x))
        beta = np.clip(mass * (r - level) / resid, 0.0, 1.0)
    return np.where(resid <= _DEGENERATE_EPS, 1.0, beta)


def _branch_arrays(pair, rule, st: _BatchState, x, t, u_branch):
    """Raise the level, split and descend for every (rejected) run in ``st``.

    Returns the child's residual mass at the new level, NaN where both
    dyadic children have none (numerical exhaustion).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        level_next = st.level + (1.0 - st.ruled) / (st.f_hi - st.f_lo)
    one = np.uint64(1)
    s63 = np.uint64(63)
    if rule is SplitRule.GLOBAL:
        bit = np.zeros(x.shape, np.uint64)
        res_child = pair.residual_above(st.lo, st.hi, level_next)
    elif rule is SplitRule.SAMPLE:
        mode = pair.ratio_mode
        keep_low = x > mode
        bit = np.where(keep_low, 0, 1).astype(np.uint64)
        st.hi = np.where(keep_low, x, st.hi)
        st.f_hi = np.where(keep_low, t, st.f_hi)
        st.lo = np.where(keep_low, st.lo, x)
        st.f_lo = np.where(keep_low, st.f_lo, t)
        res_child = pair.residual_above(st.lo, st.hi, level_next)
    elif rule is SplitRule.DYADIC:
        f_mid = 0.5 * (st.f_lo + st.f_hi)
        c = pair.proposal.quantile(f_mid)
        res_left = pair.residual_above(st.lo, c, level_next)
        res_right = pair.residual_above(c, st.hi, level_next)
        total = res_left + res_right
        exhausted = total <= 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            p_right = np.where(exhausted, 0.0, res_right / np.where(exhausted, 1.0, total))
        go_right = u_branch < p_right
        bit = np.where(go_right, 1, 0).astype(np.uint64)
        st.lo = np.where(go_right, c, st.lo)
        st.f_lo = np.where(go_right, f_mid, st.f_lo)
        st.hi = np.where(go_right, st.hi, c)
        st.f_hi = np.where(go_right, st.f_hi, f_mid)
        res_child = np.where(go_right, res_right, res_left)
        res_child = np.where(exhausted, np.nan, res_child)
    else:  # pragma: no cover
        raise ValueError(f"unknown rule {rule}")
    carry0 = st.k_lo >> s63
    st.k_lo = (st.k_lo << one) | bit
    carry1 = st.k_mid >> s63
    st.k_mid = (st.k_mid << one) | carry0
    overflow = st.k_hi >> s63
    st.k_hi = (st.k_hi << one) | carry1
    if overflow.any():
        raise NonTermination("tree offset exceeded 192 bits")
    st.level = level_next
    st.ruled = np.clip(1.0 - res_child, 0.0, 1.0)  # NaN marks exhausted runs
    return res_child


def _run_global(pair, seeds, d_max, trace):
    """Global-rule encode, vectorized across runs and steps.

    The active interval never shrinks, so every step draws from the whole
    proposal and all runs share one level sequence, L_{d+1} = L_d + res(L_d)
    with res the residual mass of the real line.  Steps are processed in
    windows of columns that start at 16 and double, so a call computes
    levels and Philox blocks only about as deep as its deepest run; where
    the windows fall does not change which column first stops a run.
    """
    n = seeds.shape[0]
    limit = math.inf if d_max is None else d_max
    out_sample = np.empty(n)
    out_depth = np.zeros(n, np.int64)
    out_accepted = np.zeros(n, bool)
    alive = np.arange(n)
    alive_seeds = seeds
    levels, resid = [0.0], [1.0]
    d0 = 0
    window = 16
    target_elems = 1 << 20  # per-window work cap keeps memory flat
    while alive.size:
        width = max(16, min(window, target_elems // alive.size))
        window = min(2 * window, 1 << 16)
        # from the first residual <= eps on, every run accepts: stop there
        while len(levels) < d0 + width and resid[-1] > _DEGENERATE_EPS:
            if len(levels) == GLOBAL_STEP_CAP:
                raise NonTermination("global levels exceed the step cap")
            levels.append(levels[-1] + resid[-1])
            resid.append(pair.residual_real_line(levels[-1]))
        w = min(width, len(levels) - d0)
        if w == 0:  # a NaN residual leaves live runs with no level to test
            raise NonTermination("global levels exhausted with live runs")
        depths = np.arange(d0, d0 + w, dtype=np.uint64)
        zeros = np.uint64(0)
        u_s, u_a, _ = node_uniforms(
            alive_seeds[:, None], depths[None, :], zeros, zeros, zeros
        )
        x = pair.proposal.quantile(u_s)
        # the whole line has proposal mass 1, and 1.0 * (r - level) is exact
        beta = _accept_prob(
            pair, x, np.array(levels[d0:d0 + w]), np.array(resid[d0:d0 + w]), 1.0
        )
        stop = u_a <= beta
        if d0 <= limit < d0 + w:
            # the depth budget forces a return at that column
            stop[:, limit - d0] = True
        hit = stop.any(axis=1)
        if hit.any():
            rows = np.nonzero(hit)[0]
            first = np.argmax(stop[rows], axis=1)
            ids = alive[rows]
            out_sample[ids] = x[rows, first]
            out_depth[ids] = d0 + first
            out_accepted[ids] = u_a[rows, first] <= beta[rows, first]
            keep = ~hit
            alive = alive[keep]
            alive_seeds = alive_seeds[keep]
        d0 += w
    heap_indices = [1 << int(dd) for dd in out_depth]
    if trace is not None:
        trace.extend([REAL_LINE] * (int(out_depth[0]) + 1))
    return BatchResult(
        samples=out_sample,
        depths=out_depth,
        heap_indices=heap_indices,
        accepted=out_accepted,
        proposal_mass=np.ones(n),
    )


def _run_batch(pair, rule, seeds, d_max, trace):
    if d_max is not None:
        d_max = operator.index(d_max)  # TypeError for a non-integer budget
        if d_max < 0:
            raise ValueError("d_max must be None or a nonnegative integer")
    _check_rule(pair, rule)
    seeds = np.atleast_1d(seed_words(seeds))
    n = seeds.shape[0]
    if trace is not None and n != 1:
        raise ValueError("trace capture only supported for single runs")
    if rule is SplitRule.GLOBAL:
        return _run_global(pair, seeds, d_max, trace)
    st = _BatchState(n, seeds)
    alive_ids = np.arange(n)
    out_sample = np.empty(n)
    out_depth = np.zeros(n, np.int64)
    out_accepted = np.zeros(n, bool)
    out_mass = np.ones(n)
    out_index = [0] * n
    limit = math.inf if d_max is None else d_max
    d = 0
    while alive_ids.size:
        if d > HARD_STEP_CAP:
            raise NonTermination(f"no acceptance within {HARD_STEP_CAP} steps")
        if trace is not None:
            trace.append(Interval(float(st.lo[0]), float(st.hi[0])))
        x, t, mass, u_a, u_b = _draw(pair, st, d)
        accepted = u_a <= _accept_prob(pair, x, st.level, 1.0 - st.ruled, mass)
        stop = accepted | (d >= limit)
        rejected = np.flatnonzero(~stop)
        child = st.take(rejected)
        if rejected.size:
            res_child = _branch_arrays(
                pair, rule, child, x[rejected], t[rejected], u_b[rejected]
            )
            # numerical exhaustion: terminate accepting the current draw
            exhausted = np.isnan(res_child)
            if exhausted.any():
                stop[rejected] = accepted[rejected] = exhausted
                child = child.take(~exhausted)
        if stop.any():
            # every stopping run is written from the parent state, whose heap
            # offsets do not yet carry this step's branch bit
            ids = alive_ids[stop]
            out_sample[ids] = x[stop]
            out_depth[ids] = d
            out_accepted[ids] = accepted[stop]
            out_mass[ids] = mass[stop]
            # ``ids`` stays an array: a temporary list of its ints would sit
            # between the kept indices in the allocator's arenas, raising RSS
            for j, index in zip(ids, st.heap_indices(stop, d)):
                out_index[j] = index
            alive_ids = alive_ids[~stop]
        st = child
        d += 1
    return BatchResult(
        samples=out_sample,
        depths=out_depth,
        heap_indices=out_index,
        accepted=out_accepted,
        proposal_mass=out_mass,
    )


def encode_batch(
    pair: DistributionPair,
    rule: SplitRule,
    seeds: Sequence[int],
    d_max: Optional[int] = None,
) -> BatchResult:
    """Encode one sample per seed; heavy lifting is vectorized across runs.

    ``d_max`` is None (no budget) or a nonnegative integer step budget.
    """
    return _run_batch(pair, rule, seeds, d_max, trace=None)


def encode(
    pair: DistributionPair,
    rule: SplitRule,
    seed: int,
    d_max: Optional[int] = None,
) -> RecResult:
    """Encode a single sample from the target using the shared random stream."""
    trace: list[Interval] = []
    out = _run_batch(pair, rule, [seed], d_max, trace=trace)
    depth = int(out.depths[0])
    return RecResult(
        sample=float(out.samples[0]),
        heap_index=out.heap_indices[0],
        depth=depth,
        accepted=bool(out.accepted[0]),
        rule=rule,
        seed=seed,
        proposal_mass=float(out.proposal_mass[0]),
        bound_trace=tuple(trace[: depth + 1]),
    )


def decode(
    proposal: Distribution1D,
    rule: SplitRule,
    seed: int,
    heap_index: int,
) -> float:
    """Reconstruct the encoder's accepted sample from its heap index.

    Only the proposal is needed: the path bits come from the index and the
    split points from the shared per-node random stream.
    """
    if heap_index < 1:
        raise InvalidIndex("heap indices start at 1")
    f_lo, f_hi = 0.0, 1.0
    node = 1
    if rule is SplitRule.GLOBAL:
        if heap_index & (heap_index - 1):
            raise InvalidIndex("global-rule indices never take a right branch")
        node = heap_index
    else:
        for b in path_bits(heap_index):
            if not f_hi - f_lo > 0.0:
                raise InvalidIndex("path leads into a zero-mass interval")
            if rule is SplitRule.SAMPLE:
                u = node_randoms(seed, node).u_sample
                f_mid = f_lo + u * (f_hi - f_lo)
            else:
                f_mid = 0.5 * (f_lo + f_hi)
            if b == 0:
                f_hi = f_mid
            else:
                f_lo = f_mid
            node = 2 * node + b
    if not f_hi - f_lo > 0.0:
        raise InvalidIndex("path leads into a zero-mass interval")
    u = node_randoms(seed, node).u_sample
    return float(proposal.quantile(f_lo + u * (f_hi - f_lo)))


def simulate_bound_masses(
    pair: DistributionPair,
    rule: SplitRule,
    seeds: Sequence[int],
    max_depth: int,
) -> np.ndarray:
    """Proposal mass of the active interval at depths 0..max_depth.

    Runs the splitting recursion with acceptance disabled (the bound process
    is autonomous), one row per seed.  Used for contraction-rate checks.
    """
    _check_rule(pair, rule)
    seeds = np.atleast_1d(seed_words(seeds))
    st = _BatchState(seeds.shape[0], seeds)
    masses = np.empty((seeds.shape[0], max_depth + 1))
    masses[:, 0] = 1.0
    for d in range(max_depth):
        x, t, _, _, u_b = _draw(pair, st, d)
        res_child = _branch_arrays(pair, rule, st, x, t, u_b)
        # an exhausted run has no residual mass left
        st.ruled = np.where(np.isnan(res_child), 1.0, st.ruled)
        masses[:, d + 1] = st.f_hi - st.f_lo
    return masses
