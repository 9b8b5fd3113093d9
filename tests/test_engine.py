import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from relcode.codecs import (
    BitReader,
    Bits,
    decode_payload,
    deserialize,
    elias_delta_encode,
    elias_gamma_encode,
    encode_payload,
    serialize,
)
from relcode.distributions import (
    Distribution1D,
    DistributionPair,
    NoFiniteMode,
    NotUnimodal,
    _PairRows,
    gaussian_pair_for_targets,
)
from relcode import engine
from relcode.engine import (
    InvalidIndex,
    NonTermination,
    SplitRule,
    _accept_prob,
    _BatchState,
    _branch_arrays,
    _draw,
    _heap_indices,
    _quiet,
    decode,
    encode,
    encode_batch,
    simulate_bound_masses,
)
from relcode.randomness import derive_seeds, node_randoms, node_uniforms

from make_golden import _pairs as golden_pairs
from oracles import (
    REAL_LINE,
    DirectGlobalRecursion,
    Interval,
    gaussian_pdf,
    numeric_residual_mass,
    path_intervals,
    ruled_out_after_one_level,
)

STD = Distribution1D(0.0, 1.0)
NARROW = DistributionPair(Distribution1D(0.0, 0.5), STD)
SAME = DistributionPair(STD, STD)
PAIR35 = gaussian_pair_for_targets(3.0, 5.0)
# a target 9 sigma below the proposal: sample and dyadic runs go past depth 64
FAR9 = DistributionPair(Distribution1D(-9.0, 0.1), STD)
ALL_RULES = list(SplitRule)


class _NoResidualAbove(DistributionPair):
    """A pair whose residual mass vanishes above a level, which forces the
    dyadic descent into numerical exhaustion (both children empty)."""

    def residuals_between(self, ends, level, bounds):
        out = super().residuals_between(ends, level, bounds)
        return [np.where(np.asarray(level) > 4.0, 0.0, res) for res in out]


NO_RESIDUAL_ABOVE_4 = _NoResidualAbove(PAIR35.target, PAIR35.proposal)

# The per-step checks below drive the encoder kernel itself on size-1
# states: ``_draw`` samples a node, ``_accept_prob`` is the clipped accept
# test and ``_branch_arrays`` raises the level and descends.  Both run under
# the kernel's error state, ``_quiet``, as inside an encode.


def root_state(pair, seed=0):
    return _BatchState(pair, np.array([seed], np.uint64))


def state_at(pair, lo, hi, level, ruled):
    """A size-1 kernel state on ``[lo, hi]`` at the given level."""
    st = root_state(pair)
    st.lo[:], st.hi[:] = lo, hi
    st.f_lo[:], st.f_hi[:] = pair.proposal.cdf(lo), pair.proposal.cdf(hi)
    st.level[:], st.ruled[:] = level, ruled
    return st


def heap_index(st, d):
    """The heap index of a size-1 state's run at depth ``d``."""
    (index,) = _heap_indices(np.array([d]), np.array([st.k_lo, st.k_mid, st.k_hi]))
    return index


def interval(st):
    return Interval(float(st.lo[0]), float(st.hi[0]))


def proposal_mass(st):
    return float(st.f_hi[0] - st.f_lo[0])


def accept_prob(pair, st, x):
    with _quiet():
        beta = _accept_prob(pair, np.array([x]), st.level, 1.0 - st.ruled, st.f_hi - st.f_lo)
    return float(beta[0])


def branch(pair, rule, st, x, u_branch=0.5):
    """Kernel descent after a rejection at ``x``; returns (bit, child state).

    The draw's CDF coordinate is ``cdf(x)``, as the kernel's ``t`` would be.
    """
    child = st.take(np.arange(1))
    t = np.atleast_1d(pair.proposal.cdf(x))
    with _quiet():
        _branch_arrays(rule, child, 0, np.array([x]), t, np.array([u_branch]))
    return int(child.k_lo[0] & np.uint64(1)), child


def encode_step_by_step(pair, rule, seed, trace=None):
    """Reference encoder: one run, one kernel step at a time, no batching.

    Returns the accepted sample and its heap index; each step's active
    interval is appended to ``trace`` if one is given.
    """
    st = root_state(pair, seed)
    d = 0
    with _quiet():
        while True:
            if trace is not None:
                trace.append(interval(st))
            x, t, mass, u_a, u_b = _draw(st, d)
            if u_a[0] <= _accept_prob(pair, x, st.level, 1.0 - st.ruled, mass)[0]:
                return float(x[0]), heap_index(st, d)
            child = st.take(np.arange(1))
            if np.isnan(_branch_arrays(rule, child, d, x, t, u_b)[0]):
                return float(x[0]), heap_index(st, d)
            st, d = child, d + 1


def global_step_by_step(pair, seed):
    """Reference global encoder: ``_run_global``'s recurrence, one level at
    a time.  Level ``L_{d+1} = L_d + res(L_d)`` with ``res`` the residual
    mass of the whole line, and node ``1 << d`` draws from the whole
    proposal.  Returns the accepted sample and its heap index."""
    level, resid = 0.0, pair.residual_real_line(0.0)
    d = 0
    with _quiet():
        while True:
            u = node_randoms(seed, 1 << d)
            x = pair.proposal.quantile(np.array([u.u_sample]))
            if u.u_accept <= _accept_prob(pair, x, level, resid, 1.0)[0]:
                return float(x[0]), 1 << d
            level += resid
            resid = pair.residual_real_line(level)
            d += 1


class TestAcceptProb:
    def test_root_is_clipped_ratio(self):
        st0 = root_state(PAIR35)
        for x in (-1.0, 0.5, PAIR35.ratio_mode):
            r = float(np.exp(PAIR35.log_ratio_nats(x)))
            assert accept_prob(PAIR35, st0, x) == pytest.approx(min(r, 1.0), abs=1e-12)

    def test_identical_always_accepts(self):
        st0 = root_state(SAME)
        for x in (-2.0, 0.0, 3.0):
            assert accept_prob(SAME, st0, x) == 1.0

    def test_degenerate_state_accepts(self):
        st = root_state(PAIR35)
        st.ruled[:] = 1.0 - 1e-13
        assert accept_prob(PAIR35, st, 0.0) == 1.0

    def test_after_one_dyadic_rejection_vs_quadrature(self):
        # drive one rejection, then compare the clip-form acceptance with a
        # direct evaluation of the general recursion: after one level raise,
        # the accounted density inside the active interval is min(r, L1)
        x0 = 1.3
        bit, st1 = branch(NARROW, SplitRule.DYADIC, root_state(NARROW), x0, u_branch=0.3)
        mu = NARROW.ratio_mode

        def r(y):
            return float(np.exp(NARROW.log_ratio_nats(y)))

        lvl = float(st1.level[0])
        lo, hi = interval(st1).lo, interval(st1).hi
        a, b = max(lo, -8.0), min(hi, 8.0)
        rem, _ = quad(
            lambda y: max(r(y) - lvl, 0.0) * gaussian_pdf(NARROW.proposal, y), a, b,
            limit=300,
        )
        alpha_mu = min(r(mu) - lvl, rem / proposal_mass(st1))
        beta_ref = alpha_mu * proposal_mass(st1) / rem
        beta_ref = max(min(beta_ref, 1.0), 0.0)
        assert accept_prob(NARROW, st1, mu) == pytest.approx(beta_ref, abs=1e-6)


class TestAdvanceLevel:
    # the global rule keeps the whole line, so its level recurrence
    # L_{d+1} = L_d + res(L_d) isolates the level update
    def test_first_level(self):
        level = 0.0 + PAIR35.residual_real_line(0.0)
        assert level == 1.0
        ruled = 1.0 - PAIR35.residual_real_line(level)
        ref = ruled_out_after_one_level(PAIR35)
        assert ruled == pytest.approx(ref, abs=1e-6)

    def test_narrow_quadrature(self):
        level = 0.0 + NARROW.residual_real_line(0.0)
        assert level == 1.0
        ruled = 1.0 - NARROW.residual_real_line(level)
        assert ruled == pytest.approx(ruled_out_after_one_level(NARROW), abs=1e-6)


class TestBranchChoice:
    def test_global_keeps_interval(self):
        # the global rule never splits: the descent refuses it before it
        # rebinds anything, so the state keeps the whole line at its level
        st = root_state(PAIR35)
        t = np.atleast_1d(PAIR35.proposal.cdf(0.7))
        with _quiet(), pytest.raises(ValueError, match="split rules"):
            _branch_arrays(SplitRule.GLOBAL, st, 0, np.array([0.7]), t, np.array([0.5]))
        assert interval(st) == REAL_LINE
        assert st.k_lo[0] == st.k_mid[0] == st.k_hi[0] == 0
        assert st.level[0] == 0.0 and st.ruled[0] == 0.0

    def test_sample_keeps_mode_side(self):
        mu = PAIR35.ratio_mode
        st0 = root_state(PAIR35)
        bit, st1 = branch(PAIR35, SplitRule.SAMPLE, st0, mu + 1.0)
        assert bit == 0 and interval(st1).hi == mu + 1.0
        bit, st2 = branch(PAIR35, SplitRule.SAMPLE, st0, mu - 1.0)
        assert bit == 1 and interval(st2).lo == mu - 1.0
        assert interval(st1).lo <= mu <= interval(st1).hi
        assert interval(st2).lo <= mu <= interval(st2).hi

    def test_dyadic_symmetric_pair_is_fair(self):
        st0 = root_state(NARROW)
        # split of the full line lands at the mode, so residuals are equal;
        # the branch coin must flip exactly at 1/2
        bit_lo, _ = branch(NARROW, SplitRule.DYADIC, st0, 2.0, u_branch=0.499999)
        bit_hi, _ = branch(NARROW, SplitRule.DYADIC, st0, 2.0, u_branch=0.500001)
        assert (bit_lo, bit_hi) == (1, 0)

    def test_dyadic_probability_vs_quadrature(self):
        pair = PAIR35
        st0 = root_state(pair)
        level1 = 1.0
        c = float(pair.proposal.quantile(0.5))
        res_r = numeric_residual_mass(pair, c, math.inf, level1)
        res_tot = numeric_residual_mass(pair, -math.inf, math.inf, level1)
        p_right = res_r / res_tot
        eps = 1e-7
        bit, _ = branch(pair, SplitRule.DYADIC, st0, 2.0, u_branch=p_right - eps)
        assert bit == 1
        bit, _ = branch(pair, SplitRule.DYADIC, st0, 2.0, u_branch=p_right + eps)
        assert bit == 0

    def test_dyadic_straddling_level_set_vs_quadrature(self):
        # a deep state whose superlevel set straddles the dyadic midpoint,
        # so the intersected mass bookkeeping is genuinely exercised;
        # rebuild the branch probability purely from (q - L p)+ quadratures
        # and check the engine's decision boundary against it
        pair = NARROW
        lo1, hi1 = -0.3, 1.1
        level1 = 1.2
        f_lo = float(pair.proposal.cdf(lo1))
        f_hi = float(pair.proposal.cdf(hi1))
        ruled = 1.0 - numeric_residual_mass(pair, lo1, hi1, level1)
        st1 = state_at(pair, lo1, hi1, level1, ruled)
        level2 = level1 + (1.0 - ruled) / (f_hi - f_lo)
        c = float(pair.proposal.quantile(0.5 * (f_lo + f_hi)))
        ls_lo, ls_hi = pair.level_bounds(level2)
        assert ls_lo < c < ls_hi  # the split point sits inside the level set
        p_right = numeric_residual_mass(pair, c, hi1, level2) / (
            numeric_residual_mass(pair, lo1, hi1, level2)
        )
        assert 0.001 < p_right < 0.999
        eps = 1e-5
        bit, st2 = branch(pair, SplitRule.DYADIC, st1, 0.9, u_branch=p_right - eps)
        assert bit == 1
        # the advanced state keeps only its own slice of the level set
        assert 1.0 - st2.ruled[0] == pytest.approx(
            numeric_residual_mass(pair, c, hi1, level2), abs=1e-6
        )
        bit, _ = branch(pair, SplitRule.DYADIC, st1, 0.9, u_branch=p_right + eps)
        assert bit == 0


class TestStateConsistency:
    @pytest.mark.parametrize("rule", [SplitRule.SAMPLE, SplitRule.DYADIC])
    def test_residual_invariant_along_trajectories(self, rule):
        for seed in range(30):
            st = root_state(PAIR35, seed)
            for d in range(6):
                x, t, _, _, u_b = _draw(st, d)
                with _quiet():
                    res_child = _branch_arrays(rule, st, d, x, t, u_b)
                if np.isnan(res_child[0]):
                    break
                iv = interval(st)
                assert 1.0 - st.ruled[0] == pytest.approx(
                    float(PAIR35.residual_above(iv.lo, iv.hi, st.level[0])), abs=1e-9
                )
                assert proposal_mass(st) == pytest.approx(
                    float(PAIR35.proposal.cdf(iv.hi) - PAIR35.proposal.cdf(iv.lo)),
                    abs=1e-9,
                )

    def test_levels_and_ruled_mass_monotone(self):
        out = encode(PAIR35, SplitRule.DYADIC, seed=3)
        st = root_state(PAIR35, 12)
        levels, ruled = [float(st.level[0])], [float(st.ruled[0])]
        for d in range(10):
            x, t, _, _, u_b = _draw(st, d)
            with _quiet():
                _branch_arrays(SplitRule.DYADIC, st, d, x, t, u_b)
            levels.append(float(st.level[0]))
            ruled.append(float(st.ruled[0]))
        assert levels == sorted(levels)
        assert ruled == sorted(ruled)
        replay = path_intervals(PAIR35.proposal, SplitRule.DYADIC, 3, out.heap_index)
        assert replay[0] == interval(root_state(PAIR35, 3)) == REAL_LINE


class TestEncodeDecode:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_identical_pair_accepts_at_root(self, rule):
        for seed in (0, 5, 99):
            res = encode(SAME, rule, seed)
            assert res.depth == 0 and res.heap_index == 1 and res.accepted
            expect = float(STD.quantile(node_randoms(seed, 1).u_sample))
            assert res.sample == expect

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_round_trip_bit_exact(self, rule):
        for seed in range(200):
            res = encode(PAIR35, rule, seed)
            got = decode(PAIR35.proposal, rule, seed, res.heap_index)
            assert got == res.sample

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_batch_matches_scalar(self, rule):
        seeds = derive_seeds(5, 0, 0, 64)
        out = encode_batch(PAIR35, rule, seeds)
        for i, s in enumerate(seeds):
            res = encode(PAIR35, rule, int(s))
            assert res.sample == out.samples[i]
            assert res.heap_index == out.heap_indices[i]
            assert res.depth == out.depths[i]
            assert res.accepted == out.accepted[i]
            assert res.proposal_mass == out.proposal_mass[i]

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_public_ops_agree_with_engine(self, rule):
        # the batched driver (run compaction, output writes) against one run
        # stepped through the same kernel pieces, or for the global rule
        # through the same level recurrence
        for seed in range(100):
            res = encode(PAIR35, rule, seed)
            if rule is SplitRule.GLOBAL:
                x, index = global_step_by_step(PAIR35, seed)
                assert index == 1 << res.depth
            else:
                x, index = encode_step_by_step(PAIR35, rule, seed)
            assert index == res.heap_index
            assert x == res.sample

    def test_trace_matches_depth_and_mass(self):
        res = encode(PAIR35, SplitRule.DYADIC, seed=17)
        trace = path_intervals(PAIR35.proposal, SplitRule.DYADIC, 17, res.heap_index)
        assert len(trace) == res.depth + 1
        last = trace[-1]
        mass = float(
            PAIR35.proposal.cdf(last.hi) - PAIR35.proposal.cdf(last.lo)
        )
        assert mass == pytest.approx(res.proposal_mass, abs=1e-12)
        for a, b in zip(trace, trace[1:]):
            assert a.lo <= b.lo and b.hi <= a.hi
        assert last.lo <= res.sample <= last.hi

    def test_depth_limit_truncates(self):
        hits = 0
        for seed in range(100):
            full = encode(PAIR35, SplitRule.DYADIC, seed)
            lim = encode(PAIR35, SplitRule.DYADIC, seed, d_max=2)
            assert lim.depth <= 2
            if full.depth <= 2:
                assert lim.heap_index == full.heap_index
                assert lim.sample == full.sample
                assert lim.accepted
            else:
                assert lim.depth == 2 and not lim.accepted
                hits += 1
            assert decode(
                PAIR35.proposal, SplitRule.DYADIC, seed, lim.heap_index
            ) == lim.sample
        assert hits > 5

    def test_integer_like_indices(self):
        # an index may be any integer type, as a seed or a budget may
        for rule, index in (("global", 4), ("sample", 5), ("dyadic", 5)):
            x = decode(PAIR35.proposal, rule, 1, index)
            assert decode(PAIR35.proposal, rule, 1, np.int64(index)) == x
        assert encode_payload("dyadic", 2, np.int64(5)) == encode_payload("dyadic", 2, 5)
        # so may a depth: at 64 and beyond, 1 << np.int64(depth) would wrap to 0
        for depth in (2, 70):
            index = (1 << depth) + 3
            want = encode_payload("dyadic", depth, index)
            assert encode_payload("dyadic", np.int64(depth), index) == want
        assert elias_gamma_encode(np.int64(9)) == elias_gamma_encode(9)
        assert elias_delta_encode(np.int64(9)) == elias_delta_encode(9)
        assert node_randoms(1, np.int64(5)) == node_randoms(1, 5)

    def test_depth_limit_infinite_is_exact(self):
        for seed in range(50):
            a = encode(PAIR35, SplitRule.SAMPLE, seed)
            b = encode(PAIR35, SplitRule.SAMPLE, seed, d_max=None)
            assert (a.sample, a.heap_index) == (b.sample, b.heap_index)

    @pytest.mark.parametrize("rule", list(SplitRule))
    def test_invalid_depth_budget_rejected_before_first_step(self, rule, monkeypatch):
        # a budget is None or a nonnegative integer, read alike by every rule
        pair = gaussian_pair_for_targets(2.0, 4.0)
        seeds = derive_seeds(0, 0, 0, 200)
        steps = []
        monkeypatch.setattr(engine, "node_uniforms", lambda *a: steps.append(a))
        with pytest.raises(ValueError):
            encode_batch(pair, rule, seeds, d_max=-1)
        with pytest.raises(TypeError):
            encode_batch(pair, rule, seeds, d_max=1.5)
        assert steps == []
        monkeypatch.undo()
        out = encode_batch(pair, rule, seeds, d_max=0)
        assert (out.depths == 0).all() and out.heap_indices == [1] * 200

    def test_sample_rule_needs_finite_mode(self):
        pair = DistributionPair(Distribution1D(1.0, 1.0), STD)
        with pytest.raises(NoFiniteMode):
            encode(pair, SplitRule.SAMPLE, 0)
        res = encode(pair, SplitRule.DYADIC, 0)  # dyadic splits are fine
        assert res.accepted

    def test_wide_target_rejected_before_first_step(self):
        # superlevel sets of a ratio that opens upward are not intervals
        wide = DistributionPair(Distribution1D(0.5, 1.5), STD)
        for rule in (SplitRule.DYADIC, SplitRule.GLOBAL):
            for seed in range(200):
                with pytest.raises(NotUnimodal):
                    encode(wide, rule, seed)
            with pytest.raises(NotUnimodal):
                simulate_bound_masses(wide, rule, [0], 3)

    def test_numerical_exhaustion_accepts_current_draw(self, caplog):
        # no residual mass above level 4: every dyadic run still alive at
        # depth 2 finds both children empty and stops where it is
        with caplog.at_level(logging.WARNING, logger="relcode"):
            out = encode_batch(NO_RESIDUAL_ABOVE_4, SplitRule.DYADIC, range(200))
        assert out.accepted.all()
        assert out.depths.max() == 2
        # one warning for the call, with the count of exhausted runs: up to
        # depth 2 the runs follow PAIR35's, so those that go deeper there
        # are the exhausted ones
        ref = encode_batch(PAIR35, SplitRule.DYADIC, range(200))
        exhausted = int(((out.depths == 2) & (ref.depths > 2)).sum())
        assert exhausted > 0
        assert [(r.name, r.levelname) for r in caplog.records] == [("relcode", "WARNING")]
        assert caplog.records[0].getMessage().startswith(f"{exhausted} of 200 dyadic runs")
        # runs that never exhaust log nothing (seed 0 accepts at depth 2)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="relcode"):
            encode_batch(PAIR35, SplitRule.DYADIC, range(200))
            encode(NO_RESIDUAL_ABOVE_4, SplitRule.DYADIC, 0)
        assert caplog.records == []
        for seed, x, d, index in zip(range(200), out.samples, out.depths, out.heap_indices):
            assert index.bit_length() - 1 == d
            assert decode(STD, SplitRule.DYADIC, seed, index) == x
            assert encode_step_by_step(NO_RESIDUAL_ABOVE_4, SplitRule.DYADIC, seed) == (
                x, index
            )
        # a lone run exhausts at a step where no run accepts: its index must
        # still come from the parent's offsets
        for seed in np.flatnonzero(out.depths == 2)[:20]:
            res = encode(NO_RESIDUAL_ABOVE_4, SplitRule.DYADIC, int(seed))
            assert (res.sample, res.heap_index) == (out.samples[seed], out.heap_indices[seed])

    @pytest.mark.parametrize("rule", [SplitRule.SAMPLE, SplitRule.DYADIC])
    def test_non_finite_sample_raises(self, rule):
        # N(8, 0.3^2) sits where the proposal's upper tail is below the ulp
        # of 1.0: some runs draw quantile(1.0) = +inf, which must not come
        # back as an accepted sample
        far = DistributionPair(Distribution1D(8.0, 0.3), STD)
        with pytest.raises(NonTermination, match="non-finite sample"):
            encode_batch(far, rule, range(2000))
        near = DistributionPair(Distribution1D(7.5, 0.3), STD)
        out = encode_batch(near, rule, range(2000))
        assert np.isfinite(out.samples).all()

    def test_decode_never_sees_target(self):
        import inspect

        params = inspect.signature(decode).parameters
        assert "pair" not in params and "target" not in params

    def test_decode_wrong_seed_differs(self):
        res = encode(PAIR35, SplitRule.DYADIC, seed=8)
        wrong = decode(PAIR35.proposal, SplitRule.DYADIC, 9, res.heap_index)
        assert wrong != res.sample

    def test_decode_invalid_paths(self):
        with pytest.raises(InvalidIndex):
            decode(STD, SplitRule.GLOBAL, 0, 3)  # right branch under global
        with pytest.raises(InvalidIndex):
            decode(STD, SplitRule.GLOBAL, 0, 0)

    def test_decode_dyadic_replay_interval(self):
        # index 5 is path (0, 1): quartile cell [q(0.25), q(0.50)]
        lo, hi = float(STD.quantile(0.25)), float(STD.quantile(0.5))
        for seed in range(20):
            x = decode(STD, SplitRule.DYADIC, seed, 5)
            assert lo <= x <= hi


class TestRuleNames:
    """A rule's name means its SplitRule member in every public function."""

    # at (3, 5), seed 1 codes at depths 13, 3 and 5 (global, sample,
    # dyadic) and seed 3 at 1, 7 and 6; seed 4 accepts at the root
    SEEDS = [1, 3]

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_names_match_members(self, rule):
        name = rule.value
        batch = encode_batch(PAIR35, rule, self.SEEDS)
        assert_same_runs(encode_batch(PAIR35, name, self.SEEDS), batch)
        masses = simulate_bound_masses(PAIR35, rule, self.SEEDS, 8)
        assert np.array_equal(simulate_bound_masses(PAIR35, name, self.SEEDS, 8), masses)
        for seed in self.SEEDS:
            want = encode(PAIR35, rule, seed)
            got = encode(PAIR35, name, seed)
            assert got == want and got.rule is rule
            assert decode(PAIR35.proposal, name, seed, want.heap_index) == want.sample
            bits = encode_payload(rule, want.depth, want.heap_index, seed)
            assert encode_payload(name, want.depth, want.heap_index, seed) == bits
            assert decode_payload(BitReader(bits), name, seed) == (want.depth, want.heap_index)

    @pytest.mark.parametrize("seed", [4, 3], ids=["depth-0", "deeper"])
    def test_unknown_name_raises_before_the_first_step(self, seed, monkeypatch):
        def stepped(*args):
            raise AssertionError("stepped with an unknown rule")

        monkeypatch.setattr(engine, "node_uniforms", stepped)
        monkeypatch.setattr(engine, "node_randoms", stepped)
        reader = BitReader(Bits([1]))
        calls = [
            lambda: encode(PAIR35, "bogus", seed),
            lambda: encode_batch(PAIR35, "bogus", [seed]),
            lambda: decode(PAIR35.proposal, "bogus", seed, 1),
            lambda: simulate_bound_masses(PAIR35, "bogus", [seed], 3),
            lambda: encode_payload("bogus", 0, 1, seed),
            lambda: decode_payload(reader, "bogus", seed),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not a valid SplitRule"):
                call()
        assert reader.pos == 0


class TestReplayedIntervals:
    """The active intervals S_0 .. S_D that ``oracles.path_intervals``
    replays from a code's heap index are the kernel's, step for step."""

    @pytest.mark.parametrize("pair", [PAIR35, FAR9], ids=["(3,5)", "N(-9,0.1^2)"])
    @pytest.mark.parametrize("rule", [SplitRule.SAMPLE, SplitRule.DYADIC])
    def test_replay_equals_kernel_steps(self, pair, rule):
        seeds = range(200)
        full = encode_batch(pair, rule, seeds)
        limited = encode_batch(pair, rule, seeds, d_max=2)
        for seed, index, index2 in zip(seeds, full.heap_indices, limited.heap_indices):
            steps = []
            assert encode_step_by_step(pair, rule, seed, steps)[1] == index
            replay = path_intervals(pair.proposal, rule, seed, index)
            assert replay == steps
            # a depth-limited code's replay is a prefix of the full one's
            replay2 = path_intervals(pair.proposal, rule, seed, index2)
            assert replay2 == replay[: len(replay2)]
        if pair is FAR9:
            assert (full.depths >= 64).any()


def assert_same_runs(got, want, rows=slice(None)):
    """``got``'s runs ``rows`` equal ``want``'s runs bit for bit."""
    assert got.samples[rows].tobytes() == want.samples.tobytes()
    assert np.array_equal(got.depths[rows], want.depths)
    assert list(np.array(got.heap_indices, object)[rows]) == want.heap_indices
    assert np.array_equal(got.accepted[rows], want.accepted)
    assert got.proposal_mass[rows].tobytes() == want.proposal_mass.tobytes()


class TestPairBatches:
    """``encode_batch`` with one pair per run, given as ``(pairs, ids)``."""

    # linear log-ratios (c2 == 0): no finite mode, so dyadic only
    SHIFTED = [DistributionPair(Distribution1D(m, 1.0), STD) for m in (1.0, -1.0)]

    @pytest.mark.parametrize("rule", [SplitRule.SAMPLE, SplitRule.DYADIC])
    @pytest.mark.parametrize("d_max", [None, 2])
    def test_repeated_pair_equals_one_pair(self, rule, d_max):
        seeds = derive_seeds(8, 0, 0, 300)
        for pair in golden_pairs().values():
            assert_same_runs(
                encode_batch(([pair] * 300, np.arange(300)), rule, seeds, d_max=d_max),
                encode_batch(pair, rule, seeds, d_max=d_max),
            )

    @pytest.mark.parametrize("rule", [SplitRule.SAMPLE, SplitRule.DYADIC])
    @pytest.mark.parametrize("d_max", [None, 2])
    def test_mixed_pairs_equal_each_runs_own_encode(self, rule, d_max):
        pairs = list(golden_pairs().values())
        if rule is SplitRule.DYADIC:
            pairs += self.SHIFTED
        n = 1200
        seeds = derive_seeds(9, 0, 0, n)
        ids = np.random.default_rng(3).integers(len(pairs), size=n)
        out = encode_batch((pairs, ids), rule, seeds, d_max=d_max)
        for j, pair in enumerate(pairs):
            rows = np.flatnonzero(ids == j)
            assert rows.size > 50
            assert_same_runs(out, encode_batch(pair, rule, seeds[rows], d_max=d_max), rows)
        for i in range(0, n, 97):
            res = encode(pairs[ids[i]], rule, int(seeds[i]), d_max=d_max)
            assert (res.sample, res.heap_index) == (out.samples[i], out.heap_indices[i])

    def test_global_needs_one_pair(self, monkeypatch):
        seeds = derive_seeds(10, 0, 0, 40)
        steps = []
        monkeypatch.setattr(engine, "node_uniforms", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match="one pair"):
            encode_batch(([PAIR35, NARROW], np.arange(40) // 39), SplitRule.GLOBAL, seeds)
        assert steps == []
        monkeypatch.undo()
        # equal pairs are one pair, whichever objects carry them
        pairs = [gaussian_pair_for_targets(2.0, 4.0) for _ in range(40)]
        assert_same_runs(
            encode_batch((pairs, np.arange(40)), SplitRule.GLOBAL, seeds),
            encode_batch(pairs[0], SplitRule.GLOBAL, seeds),
        )

    @pytest.mark.parametrize("rule", list(SplitRule))
    def test_no_pairs_for_no_seeds_is_an_empty_batch(self, rule):
        empty = encode_batch(([], []), rule, [])
        assert empty.heap_indices == [] and empty.depths.shape == (0,)
        assert_same_runs(empty, encode_batch(PAIR35, rule, []))

    def test_length_mismatch_raises(self):
        seeds = derive_seeds(11, 0, 0, 10)
        for count in (9, 11, 0):
            with pytest.raises(ValueError, match="pairs for 10 seeds"):
                encode_batch(([PAIR35, NARROW], np.arange(count) % 2), SplitRule.DYADIC, seeds)

    @pytest.mark.parametrize("rule, bad, error", [
        (SplitRule.DYADIC, DistributionPair(Distribution1D(0.5, 1.5), STD), NotUnimodal),
        (SplitRule.SAMPLE, DistributionPair(Distribution1D(0.5, 1.5), STD), NoFiniteMode),
        (SplitRule.SAMPLE, DistributionPair(Distribution1D(1.0, 1.0), STD), NoFiniteMode),
    ])
    def test_bad_last_pair_raises_before_first_step(self, rule, bad, error, monkeypatch):
        seeds = derive_seeds(12, 0, 0, 201)
        steps = []
        monkeypatch.setattr(engine, "node_uniforms", lambda *a: steps.append(a))
        with pytest.raises(error):
            encode_batch(([PAIR35, NARROW, bad], np.append(np.arange(200) % 2, 2)), rule, seeds)
        assert steps == []

    @pytest.mark.parametrize("pair, error", [
        ([PAIR35, NARROW] * 5, TypeError),  # a plain list of one pair per seed
        ((PAIR35, NARROW), ValueError),  # a pair in place of ids
        (([PAIR35, NARROW], np.zeros((2, 5), np.int64)), ValueError),
        (([PAIR35, NARROW], np.zeros(10)), ValueError),
        (([PAIR35, NARROW], np.zeros(10, bool)), ValueError),
        (([PAIR35, NARROW], np.arange(10) - 1), ValueError),
        (([PAIR35, NARROW], np.arange(10) % 3), ValueError),
    ], ids=["list", "two-pairs", "2-d", "float", "bool", "negative", "out-of-range"])
    def test_bad_pairs_and_ids_raise_before_first_step(self, pair, error, monkeypatch):
        steps = []
        monkeypatch.setattr(engine, "node_uniforms", lambda *a: steps.append(a))
        with pytest.raises(error):
            encode_batch(pair, SplitRule.DYADIC, derive_seeds(13, 0, 0, 10))
        assert steps == []


class TestDeepHeapIndices:
    """Runs that stop at depth 64 or more carry offset bits past ``k_lo``;
    shallower ones are assembled from ``k_lo`` alone."""

    # a target 12 sigma from the proposal: sample and dyadic runs go deep
    FAR = DistributionPair(Distribution1D(-12.0, 0.3), STD)

    @pytest.mark.parametrize("rule", [SplitRule.SAMPLE, SplitRule.DYADIC])
    def test_batch_past_depth_64(self, rule):
        seeds = range(300)
        out = encode_batch(self.FAR, rule, seeds)
        assert (out.depths >= 64).sum() >= 100 and (out.depths < 128).all()
        for seed, x, d, index in zip(seeds, out.samples, out.depths, out.heap_indices):
            assert type(index) is int and index.bit_length() - 1 == d
            assert decode(STD, rule, seed, index) == x
        # one-run encodes take ~30 ms each here, so every tenth seed
        for seed in seeds[::10]:
            res = encode(self.FAR, rule, seed)
            assert (res.heap_index, res.sample) == (out.heap_indices[seed], out.samples[seed])

    DEPTHS = [0, 1, 63, 64, 127, 128, 191]

    @staticmethod
    def offsets(depth):
        rng = np.random.default_rng(depth)
        return [0, (1 << depth) - 1] + [
            int.from_bytes(rng.bytes(24), "little") % (1 << depth) for _ in range(30)
        ]

    @staticmethod
    def words(offsets):
        """The offsets' uint64 words, one column each: ``k_lo``, ``k_mid``, ``k_hi``."""
        return np.array(
            [[(k >> shift) & (2**64 - 1) for k in offsets] for shift in (0, 64, 128)], np.uint64
        )

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_assembly_matches_heap_index(self, depth):
        offsets = self.offsets(depth)
        got = _heap_indices(np.full(len(offsets), depth, np.int64), self.words(offsets))
        assert all(type(h) is int for h in got)
        assert got == [(1 << depth) + k for k in offsets]

    def test_assembly_mixes_depths(self):
        # one call over runs of every depth, shallow and deep interleaved
        runs = [(d, k) for d in self.DEPTHS for k in self.offsets(d)]
        runs = [runs[i] for i in np.random.default_rng(7).permutation(len(runs))]
        depths = np.array([d for d, _ in runs], np.int64)
        got = _heap_indices(depths, self.words([k for _, k in runs]))
        assert got == [(1 << d) + k for d, k in runs]


def residual_reference(pair, lo, hi, level):
    """``residual_above`` by its plain expressions: ends zeroed on empty
    intersections, each CDF a fresh array, and np.clip."""
    ls_lo, ls_hi = pair.level_bounds(level)
    a, b = np.maximum(lo, ls_lo), np.minimum(hi, ls_hi)
    nonempty = a < b
    a, b = np.where(nonempty, a, 0.0), np.where(nonempty, b, 0.0)
    qmass = pair.target.cdf(b) - pair.target.cdf(a)
    pmass = pair.proposal.cdf(b) - pair.proposal.cdf(a)
    return np.clip(np.where(nonempty, qmass - level * pmass, 0.0), 0.0, 1.0)


class TestKernelShortcuts:
    """``residuals_between`` over stacked intervals (which broadcast against
    one row of levels) and the offsets' shift below depth 63 give what the
    plain computations give, bit for bit."""

    LINEAR = DistributionPair(Distribution1D(1.0, 1.0), STD)  # c2 == 0, c1 == 1

    @pytest.mark.parametrize("mixed", [False, True])
    def test_stacked_residuals_equal_separate_calls(self, mixed):
        rng = np.random.default_rng(3)
        n = 64
        lo, c, hi = np.sort(rng.normal(0.0, 2.0, (3, n)), axis=0)
        lo[:8], hi[4:12] = -np.inf, np.inf  # infinite ends
        c[16:20] = lo[16:20]  # an empty left child
        # level 0 (the whole line), ordinary levels, and levels above the
        # ratio's maximum (an empty level set)
        level = np.concatenate([[0.0] * 4, rng.uniform(0.5, 6.0, n - 12), [1e3] * 8])
        if mixed:
            pairs = [PAIR35, SAME, NARROW, self.LINEAR]
            pair = _PairRows.of(pairs, np.arange(n) % len(pairs))
        else:
            pair = PAIR35
        bounds = pair.level_bounds(level)
        stacked = pair.residuals_between((np.array((lo, c)), np.array((c, hi))), level, bounds)[0]
        assert stacked.shape == (2, n)
        for row, (a, b) in zip(stacked, [(lo, c), (c, hi)]):
            one = pair.residuals_between((a, b), level, bounds)[0]
            assert row.tobytes() == one.tobytes()
            assert row.tobytes() == residual_reference(pair, a, b, level).tobytes()
        assert (stacked[:, -8:] == 0.0).all() and (stacked[:, :4] > 0.0).any()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_shared_cut_equals_two_calls(self, mixed):
        # both children's residuals from one clamp of (lo, cut, hi) equal
        # one two-end residuals_between call per child and the plain expressions
        rng = np.random.default_rng(5)
        n = 96
        lo, c, hi = np.sort(rng.normal(0.0, 2.0, (3, n)), axis=0)
        lo[:8], hi[4:12] = -np.inf, np.inf  # infinite ends
        c[16:20] = lo[16:20]  # an empty left child
        c[20:24] = hi[20:24]  # an empty right child
        # level 0 (the whole line), ordinary levels, and levels above the
        # ratio's maximum (an empty level set)
        level = np.concatenate([[0.0] * 4, rng.uniform(0.5, 6.0, n - 12), [1e3] * 8])
        if mixed:
            pairs = [PAIR35, SAME, NARROW, self.LINEAR]
            pair = _PairRows.of(pairs, np.arange(n) % len(pairs))
        else:
            pair = PAIR35
        bounds = pair.level_bounds(level)
        ls_lo, ls_hi = bounds
        # cuts below and above a nonempty level set, inside the interval
        inside = np.isfinite(ls_lo) & np.isfinite(ls_hi) & (ls_lo < ls_hi)
        below, above = np.flatnonzero(inside)[24:40:2], np.flatnonzero(inside)[25:40:2]
        lo[below], c[below] = ls_lo[below] - 2.0, ls_lo[below] - 1.0
        c[above], hi[above] = ls_hi[above] + 1.0, ls_hi[above] + 2.0
        hi[below], lo[above] = np.maximum(hi[below], c[below]), np.minimum(lo[above], c[above])
        assert below.size and above.size
        left, right = pair.residuals_between((lo, c, hi), level, bounds)
        for got, (a, b) in zip((left, right), [(lo, c), (c, hi)]):
            assert got.tobytes() == pair.residuals_between((a, b), level, bounds)[0].tobytes()
            assert got.tobytes() == residual_reference(pair, a, b, level).tobytes()
        assert (left[below] == 0.0).all() and (right[above] == 0.0).all()
        assert (left[above] > 0.0).any() and (right[below] > 0.0).any()
        assert (left[-8:] == 0.0).all() and (right[-8:] == 0.0).all()

    def test_offsets_through_depth_63(self):
        # offsets at depth 61 with their top bits set, stepped to depth 66:
        # below depth 63 only k_lo shifts, from depth 64 bits carry over
        tops = [(1 << 61) - 1, 1 << 60, (1 << 61) - 2, 0b101 << 58]
        n = len(tops)
        st = _BatchState(PAIR35, np.zeros(n, np.uint64))
        st.k_lo = np.array(tops, np.uint64)
        want = tops
        rng = np.random.default_rng(0)
        for d in range(61, 67):
            # the root's interval and level each step keep both children's
            # residuals positive, so a branch uniform of -1 goes right, 2 left
            st.lo, st.hi = np.full(n, -np.inf), np.full(n, np.inf)
            st.f_lo, st.f_hi = np.zeros(n), np.ones(n)
            st.level, st.ruled = np.zeros(n), np.zeros(n)
            bits = rng.permutation([0, 1] * (n // 2))
            with _quiet():
                _branch_arrays(SplitRule.DYADIC, st, d, np.zeros(n), np.full(n, 0.5),
                               np.where(bits == 1, -1.0, 2.0))
            want = [(k << 1) | int(b) for k, b in zip(want, bits)]
            got = _heap_indices(np.full(n, d + 1), np.array([st.k_lo, st.k_mid, st.k_hi]))
            assert got == [(1 << d + 1) + k for k in want]
            assert got == [heap_index(st.take([i]), d + 1) for i in range(n)]
        assert st.k_mid.any() and not st.k_hi.any()


class TestCallBudget:
    """A one-run encode is numpy dispatch on 1-element arrays, so its cost
    follows the Python-level calls of each step."""

    # calls per dyadic step at (3, 5), measured on Python 3.11 and numpy 2.4
    # (numpy's dispatch wrappers are among the calls counted)
    DYADIC_CALLS_PER_STEP = 60

    def test_calls_per_dyadic_step(self):
        encode(PAIR35, SplitRule.DYADIC, 0)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        depths = []
        sys.setprofile(count)
        try:
            for seed in range(50):
                depths.append(encode(PAIR35, SplitRule.DYADIC, seed).depth)
        finally:
            sys.setprofile(None)
        per_step = calls / (sum(depths) + len(depths))
        assert per_step <= 1.1 * self.DYADIC_CALLS_PER_STEP, per_step


class TestPeakMemory:
    """The dyadic descent sets a large batch's peak memory: its residual
    routine holds no more full-size arrays than two plain calls did."""

    # tracemalloc peak of the call below with one residual call per child per
    # step (Python 3.11, numpy 2.4, which reports its data to tracemalloc)
    TWO_CALLS_PEAK_MIB = 19.22

    def test_dyadic_batch_peak(self):
        seeds = np.arange(65_536, dtype=np.uint64)
        encode_batch(PAIR35, SplitRule.DYADIC, seeds[:64])  # lazy set-up first
        tracemalloc.start()
        try:
            encode_batch(PAIR35, SplitRule.DYADIC, seeds)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * self.TWO_CALLS_PEAK_MIB, peak


class TestSeedContract:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            encode(PAIR35, SplitRule.DYADIC, seed)
        with pytest.raises(ValueError):
            encode_batch(PAIR35, SplitRule.DYADIC, [0, seed])
        if seed < 0:
            with pytest.raises(ValueError):
                encode_batch(PAIR35, SplitRule.DYADIC, np.array([0, seed], np.int64))
        res = next(r for r in (encode(PAIR35, SplitRule.SAMPLE, s) for s in range(50))
                   if r.depth > 0)
        with pytest.raises(ValueError):
            decode(PAIR35.proposal, SplitRule.SAMPLE, seed, res.heap_index)
        with pytest.raises(ValueError):
            deserialize(serialize(res), seed=seed)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_bad_shape_or_depth_rejected_before_first_step(self, rule, monkeypatch):
        steps = []
        monkeypatch.setattr(engine, "node_uniforms", lambda *a: steps.append(a))
        grid = np.zeros((2, 3), np.uint64)
        with pytest.raises(ValueError, match="1-D"):
            encode_batch(PAIR35, rule, grid)
        with pytest.raises(ValueError, match="1-D"):
            simulate_bound_masses(PAIR35, rule, grid, 3)
        with pytest.raises(ValueError, match="max_depth"):
            simulate_bound_masses(PAIR35, rule, [1], -1)
        with pytest.raises(TypeError):
            simulate_bound_masses(PAIR35, rule, [1], 1.5)
        assert steps == []

    def test_derive_seeds_rejects_out_of_range_base(self):
        for base in (-1, 2**64):
            with pytest.raises(ValueError):
                derive_seeds(base, 0, 0, 3)
        assert derive_seeds(2**64 - 1, 0, 0, 3).shape == (3,)

    def test_derive_seeds_rejects_negative_count(self):
        for n in (-1, -3):
            with pytest.raises(ValueError):
                derive_seeds(0, 0, 0, n)
        assert derive_seeds(0, 0, 0, 0).shape == (0,)

    def test_derive_seeds_rejects_fractional_count(self):
        for n in (150.5, 2.0, np.float64(3.0)):
            with pytest.raises(TypeError):
                derive_seeds(0, 1, 0, n)
        assert np.array_equal(derive_seeds(0, 1, 0, np.int64(3)), derive_seeds(0, 1, 0, 3))

    def test_range_ends_round_trip(self):
        seeds = [0, 2**63, 2**64 - 1]
        out = encode_batch(PAIR35, SplitRule.SAMPLE, np.array(seeds, np.uint64))
        for i, seed in enumerate(seeds):
            res = encode(PAIR35, SplitRule.SAMPLE, seed)
            assert (res.sample, res.heap_index) == (out.samples[i], out.heap_indices[i])
            _, _, index, _ = deserialize(serialize(res), seed=seed)
            assert decode(PAIR35.proposal, SplitRule.SAMPLE, seed, index) == res.sample


class TestDistributionOfSamples:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_ks_smoke(self, rule):
        seeds = derive_seeds(99, int(SplitRule(rule) is rule), 1, 20_000)
        out = encode_batch(PAIR35, rule, seeds)
        res = stats.kstest(out.samples, PAIR35.target.cdf)
        assert res.pvalue > 1e-3


class TestContraction:
    def test_sample_split_masses_shrink_geometrically(self):
        seeds = derive_seeds(4, 0, 0, 2000)
        masses = simulate_bound_masses(PAIR35, SplitRule.SAMPLE, seeds, 10)
        assert masses.shape == (2000, 11)
        assert np.all(masses[:, 0] == 1.0)
        for d in range(1, 11):
            mean = masses[:, d].mean()
            se = masses[:, d].std(ddof=1) / math.sqrt(len(seeds))
            assert mean <= 0.75**d + 3 * se

    def test_global_masses_stay_one(self):
        seeds = derive_seeds(4, 0, 0, 16)
        masses = simulate_bound_masses(PAIR35, SplitRule.GLOBAL, seeds, 5)
        assert np.all(masses == 1.0)


class TestGlobalRuntime:
    def test_mean_steps_track_two_to_dinf(self):
        # loose empirical check: expected step count ~ 2**dinf
        pair = gaussian_pair_for_targets(3.0, 6.0)
        seeds = derive_seeds(55, 0, 0, 4000)
        out = encode_batch(pair, SplitRule.GLOBAL, seeds)
        assert 32.0 <= out.depths.mean() <= 128.0

    def test_single_encode_work_tracks_its_depth(self, monkeypatch):
        # windows of 16, 32, 64, ... columns: one run draws fewer than twice
        # its depth plus the first window in Philox lanes
        lanes = []

        def counting(*args):
            out = node_uniforms(*args)
            lanes.append(out[0].size)
            return out

        monkeypatch.setattr(engine, "node_uniforms", counting)
        pair = gaussian_pair_for_targets(2.0, 4.0)
        for seed in range(50):
            lanes.clear()
            res = encode(pair, SplitRule.GLOBAL, seed)
            assert sum(lanes) <= 2 * (res.depth + 16)

    def test_depth_limit_across_window_edges(self):
        # the first windows cover columns 0-15, 16-47, 48-111, ..., 496-1007
        pair = gaussian_pair_for_targets(2.0, 4.0)
        seeds = derive_seeds(7, 0, 0, 2000)
        full = encode_batch(pair, SplitRule.GLOBAL, seeds)
        for d_max in (15, 16, 17, 47, 48, 49, 500):
            lim = encode_batch(pair, SplitRule.GLOBAL, seeds, d_max=d_max)
            inside = full.depths <= d_max
            assert inside.any() and not inside.all()
            assert np.array_equal(lim.samples[inside], full.samples[inside])
            assert np.array_equal(lim.depths[inside], full.depths[inside])
            assert lim.accepted[inside].all()
            assert (lim.depths[~inside] == d_max).all()
            assert not lim.accepted[~inside].any()
            assert lim.heap_indices == [1 << int(d) for d in lim.depths]


class TestGlobalEquivalence:
    def test_direct_recursion_smoke(self):
        pair = gaussian_pair_for_targets(1.0, 2.0)
        seeds = derive_seeds(31, 0, 0, 50)
        out = encode_batch(pair, SplitRule.GLOBAL, seeds)
        for i, s in enumerate(seeds):
            oracle = DirectGlobalRecursion(pair)
            x, d = oracle.run(int(s))
            assert d == out.depths[i]
            assert x == out.samples[i]
