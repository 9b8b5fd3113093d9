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
A batch may code one pair per run: the distinct pairs' parameters are then
indexed out into per-run rows, on which the same kernel expressions run
elementwise.

A one-run step is numpy dispatch on 1-element arrays, so its fixed work is
kept small: the kernel enters one ``np.errstate`` per call (``_quiet``), so
a dyadic step enters none and a sample step only the one inside
``residual_above``; both dyadic children take their residuals in one call
over stacked intervals; and as an offset at depth ``d`` is below ``2**d``, a
descent below depth 63 shifts only ``k_lo`` of the offset's three uint64
words.

The global rule keeps the whole line active, so its runs share one level
sequence and need no per-run interval state; ``_run_global`` tests a window
of steps at once and computes the levels each call needs, no deeper than its
deepest run.  The module holds no mutable state, so concurrent calls need
no locks.
"""

from __future__ import annotations

import enum
import logging
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import DistributionPair, Distribution1D, NoFiniteMode, _PairRows
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
_ONE, _S63 = np.uint64(1), np.uint64(63)
_log = logging.getLogger("relcode")


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


def _batch_pair(pair, rule: SplitRule, n: int) -> DistributionPair:
    """The pair of a batch of ``n`` runs: ``pair`` itself, the one distinct
    pair of a sequence, or else the sequence's :class:`_PairRows`, which the
    global rule refuses (its runs share one level sequence).  Every distinct
    pair is checked against the rule before the first step."""
    if isinstance(pair, DistributionPair):
        _check_rule(pair, rule)
        return pair
    if len(pair) != n:
        raise ValueError(f"{len(pair)} pairs for {n} seeds")
    # distinct objects in one pass over their ids, then distinct values
    # among those objects, numbered in order of first appearance
    _, first, inverse = np.unique(
        np.fromiter(map(id, pair), np.uint64, n), return_index=True, return_inverse=True
    )
    numbers: dict = {}
    for i in np.sort(first):
        numbers.setdefault(pair[i], len(numbers))
    distinct = list(numbers)
    if len(distinct) > 1 and rule is SplitRule.GLOBAL:
        raise ValueError("the global rule codes one pair per batch")
    for p in distinct:
        _check_rule(p, rule)
    if len(distinct) == 1:
        return distinct[0]
    ids = np.array([numbers[pair[i]] for i in first])[inverse]
    return _PairRows.of(distinct, ids)


class _BatchState:
    """Per-run arrays for the alive subset of a vectorized encode, and its
    pair: one for every run, or a :class:`_PairRows` of per-run rows."""

    def __init__(self, pair: DistributionPair, seeds: np.ndarray):
        n = seeds.shape[0]
        self.pair = pair
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
        """A new state holding the selected runs, with their pair rows if
        the runs have their own pairs; ``self`` is left intact."""
        new = object.__new__(_BatchState)
        new.__dict__ = {name: arr[rows] for name, arr in vars(self).items() if name != "pair"}
        new.pair = self.pair.take(rows) if isinstance(self.pair, _PairRows) else self.pair
        return new

    def share(self) -> _BatchState:
        """A new state over this one's arrays and pair, for a descent that
        rebinds its attributes and never writes into them."""
        new = object.__new__(_BatchState)
        new.__dict__ = self.__dict__.copy()
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


def _quiet():
    """The kernel's floating-point error state, entered once per call: the
    infinities and NaNs of degenerate intervals are expected, and each is
    handled where it arises."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _draw(st: _BatchState, d: int):
    """Node draw at depth ``d`` for every run: the proposal restricted to the
    active interval, sampled by its quantile.

    Returns ``(x, t, mass, u_accept, u_branch)`` with ``t`` the draw's CDF
    coordinate and ``mass`` the interval's proposal mass.
    """
    u_s, u_a, u_b = node_uniforms(st.seeds, d, st.k_lo, st.k_mid, st.k_hi)
    mass = st.f_hi - st.f_lo
    t = st.f_lo + u_s * mass
    return st.pair.proposal.quantile(t), t, mass, u_a, u_b


def _accept_prob(pair: DistributionPair, x, level, resid, mass):
    """Clipped acceptance probability ``clip(mass * (r(x) - level) / resid, 0, 1)``.

    Returns 1 where the residual mass is exhausted to machine precision
    (``resid <= 1e-12``): the accept-immediately convention.  Runs under
    the caller's :func:`_quiet` error state.
    """
    r = np.exp(pair.log_ratio_nats(x))
    beta = np.minimum(np.maximum(mass * (r - level) / resid, 0.0), 1.0)
    return np.where(resid <= _DEGENERATE_EPS, 1.0, beta)


def _branch_arrays(rule, st: _BatchState, d: int, x, t, u_branch):
    """Raise the level, split and descend for every (rejected) run in ``st``
    at depth ``d``.

    Returns the child's residual mass at the new level, NaN where both
    dyadic children have none (numerical exhaustion).  The state's
    attributes are rebound, never written into.  Runs under the caller's
    :func:`_quiet` error state.
    """
    pair = st.pair
    level_next = st.level + (1.0 - st.ruled) / (st.f_hi - st.f_lo)
    if rule is SplitRule.GLOBAL:
        # the active interval stays the whole line and the offset stays 0
        res_child = pair.residual_above(st.lo, st.hi, level_next)
        go_right = None
    elif rule is SplitRule.SAMPLE:
        keep_low = x > pair.ratio_mode
        go_right = ~keep_low
        st.hi = np.where(keep_low, x, st.hi)
        st.f_hi = np.where(keep_low, t, st.f_hi)
        st.lo = np.where(keep_low, st.lo, x)
        st.f_lo = np.where(keep_low, st.f_lo, t)
        res_child = pair.residual_above(st.lo, st.hi, level_next)
    elif rule is SplitRule.DYADIC:
        f_mid = 0.5 * (st.f_lo + st.f_hi)
        c = pair.proposal.quantile(f_mid)
        # both children lie at one level: solve its level set once, and take
        # their residuals in one call over the stacked intervals [lo, c], [c, hi]
        ends = np.array((st.lo, c, st.hi))
        res_left, res_right = pair.residual_within(
            ends[:2], ends[1:], level_next, pair._level_bounds(level_next)
        )
        del ends  # before the state's new arrays are made
        total = res_left + res_right
        exhausted = total <= 0.0
        # an exhausted run's 0 / 0 is NaN, and u < NaN is False as u < 0 is
        go_right = u_branch < res_right / total
        st.lo = np.where(go_right, c, st.lo)
        st.f_lo = np.where(go_right, f_mid, st.f_lo)
        st.hi = np.where(go_right, st.hi, c)
        st.f_hi = np.where(go_right, st.f_hi, f_mid)
        res_child = np.where(exhausted, np.nan, np.where(go_right, res_right, res_left))
    else:  # pragma: no cover
        raise ValueError(f"unknown rule {rule}")
    if go_right is not None:
        if d >= 63:
            # an offset at depth d is below 2**d, so bits carry out of k_lo
            # only from here on
            overflow = st.k_hi >> _S63
            st.k_hi = (st.k_hi << _ONE) | (st.k_mid >> _S63)
            st.k_mid = (st.k_mid << _ONE) | (st.k_lo >> _S63)
            if overflow.any():
                raise NonTermination("tree offset exceeded 192 bits")
        st.k_lo = (st.k_lo << _ONE) | go_right.astype(np.uint64)
    st.level = level_next
    st.ruled = np.minimum(np.maximum(1.0 - res_child, 0.0), 1.0)  # NaN marks exhausted runs
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
        with _quiet():
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
    seeds = np.atleast_1d(seed_words(seeds))
    n = seeds.shape[0]
    pair = _batch_pair(pair, rule, n)
    if trace is not None and n != 1:
        raise ValueError("trace capture only supported for single runs")
    if rule is SplitRule.GLOBAL:
        return _run_global(pair, seeds, d_max, trace)
    st = _BatchState(pair, seeds)
    alive_ids = np.arange(n)
    out_sample = np.empty(n)
    out_depth = np.zeros(n, np.int64)
    out_accepted = np.zeros(n, bool)
    out_mass = np.ones(n)
    out_index = [0] * n
    limit = math.inf if d_max is None else d_max
    d = 0
    exhausted_runs = 0
    with _quiet():
        while alive_ids.size:
            if d > HARD_STEP_CAP:
                raise NonTermination(f"no acceptance within {HARD_STEP_CAP} steps")
            if trace is not None:
                trace.append(Interval(float(st.lo[0]), float(st.hi[0])))
            x, t, mass, u_a, u_b = _draw(st, d)
            accepted = u_a <= _accept_prob(st.pair, x, st.level, 1.0 - st.ruled, mass)
            # the descent sets a large batch's peak memory: it holds no
            # full-size draw array it does not need
            del u_a
            # at the depth budget every run stops
            stop = accepted if d < limit else np.ones_like(accepted)
            rejected = (~stop).nonzero()[0]
            stopping = rejected.size < stop.size
            child = None  # every run stops
            if rejected.size:
                if stopping:
                    child, rows = st.take(rejected), rejected
                else:
                    # the child shares the parent's arrays, which the
                    # descent rebinds and never writes into
                    child, rows = st.share(), slice(None)
                t, u_b = t[rows], u_b[rows]
                res_child = _branch_arrays(rule, child, d, x[rows], t, u_b)
                # numerical exhaustion: terminate accepting the current draw
                exhausted = np.isnan(res_child)
                count = np.count_nonzero(exhausted)
                if count:
                    exhausted_runs += count
                    stop[rejected] = accepted[rejected] = exhausted
                    stopping = True
                    child = child.take(~exhausted)
            if stopping:
                # every stopping run is written from the parent state, whose
                # heap offsets do not yet carry this step's branch bit
                ids = alive_ids[stop]
                out_sample[ids] = x[stop]
                out_depth[ids] = d
                out_accepted[ids] = accepted[stop]
                out_mass[ids] = mass[stop]
                # ``ids`` stays an array: a temporary list of its ints would
                # sit between the kept indices in the allocator's arenas,
                # raising RSS
                for j, index in zip(ids, st.heap_indices(stop, d)):
                    out_index[j] = index
                alive_ids = alive_ids[~stop]
            st = child
            d += 1
    if exhausted_runs:
        _log.warning(
            "%d of %d %s runs found no residual mass in either child and "
            "accepted their current draw", exhausted_runs, n, rule.value,
        )
    return BatchResult(
        samples=out_sample,
        depths=out_depth,
        heap_indices=out_index,
        accepted=out_accepted,
        proposal_mass=out_mass,
    )


def encode_batch(
    pair: Union[DistributionPair, Sequence[DistributionPair]],
    rule: SplitRule,
    seeds: Sequence[int],
    d_max: Optional[int] = None,
) -> BatchResult:
    """Encode one sample per seed; heavy lifting is vectorized across runs.

    ``pair`` is one pair for every run, or a sequence of one pair per seed
    (the global rule takes one pair).  Every pair is checked against the
    rule before the first step.  ``d_max`` is None (no budget) or a
    nonnegative integer step budget.
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
    st = _BatchState(pair, seeds)
    masses = np.empty((seeds.shape[0], max_depth + 1))
    masses[:, 0] = 1.0
    with _quiet():
        for d in range(max_depth):
            x, t, _, _, u_b = _draw(st, d)
            res_child = _branch_arrays(rule, st, d, x, t, u_b)
            # an exhausted run has no residual mass left
            st.ruled = np.where(np.isnan(res_child), 1.0, st.ruled)
            masses[:, d + 1] = st.f_hi - st.f_lo
    return masses
