import math

import numpy as np
import pytest
from scipy import stats

from relcode.distributions import (
    Distribution1D,
    DistributionPair,
    NoFiniteMode,
    NotUnimodal,
    Unsatisfiable,
    gaussian_pair_for_targets,
)

from oracles import (
    Interval,
    REAL_LINE,
    bisect_level_edge,
    gaussian_pdf,
    grid_ratio_argmax,
    numeric_kl_bits,
    numeric_residual_mass,
)

STD = Distribution1D(loc=0.0, scale=1.0)
NARROW = DistributionPair(Distribution1D(0.0, 0.5), STD)
SHIFTED = DistributionPair(Distribution1D(1.0, 0.5), STD)
SAME = DistributionPair(STD, STD)


def log2_ratio(pair, x):
    return pair.log_ratio_nats(x) / math.log(2.0)


def residual(pair, interval, level):
    return float(pair.residual_above(interval.lo, interval.hi, level))


def level_set(pair, level):
    """The superlevel set of the ratio; ``lo > hi`` is the empty set."""
    lo, hi = pair.level_bounds(level)
    return Interval(float(lo), float(hi))


def random_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        dkl = rng.uniform(0.3, 5.0)
        dinf = dkl + rng.uniform(0.8, 3.0)
        out.append(gaussian_pair_for_targets(dkl, dinf))
    return out


class TestDistribution1D:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution1D(0.0, 0.0)
        with pytest.raises(ValueError):
            Distribution1D(0.0, -1.0)
        with pytest.raises(TypeError):
            Distribution1D(0.0, 1.0, family="cauchy")

    def test_quantile_inverts_cdf(self):
        # round-trip precision is limited by the spacing of doubles near
        # cdf = 1: the floor is ulp(1)/pdf(x), which exceeds 1e-9 beyond
        # about +5.3 sigma; below that the 1e-9 bound must hold outright
        d = Distribution1D(loc=2.0, scale=0.7)
        xs = np.linspace(2.0 - 8 * 0.7, 2.0 + 8 * 0.7, 400)
        back = d.quantile(d.cdf(xs))
        floor = np.finfo(float).eps / np.maximum(gaussian_pdf(d, xs) * d.scale, 1e-300)
        assert np.all(np.abs(back - xs) < np.maximum(1e-9, 2.0 * floor))
        bulk = np.abs(xs - 2.0) <= 5.0 * 0.7
        assert np.max(np.abs(back[bulk] - xs[bulk])) < 1e-9

    def test_probability_integral_transform(self):
        rng = np.random.default_rng(42)
        d = Distribution1D(loc=-1.0, scale=2.0)
        draws = d.quantile(rng.random(100_000))
        res = stats.kstest(draws, d.cdf)
        assert res.pvalue > 1e-3


class TestLogDensityRatio:
    def test_identical_is_zero(self):
        for x in (-3.0, 0.0, 1.7):
            assert log2_ratio(SAME, x) == 0.0

    def test_narrow_at_center(self):
        # density ratio of N(0, 0.5^2) to N(0,1) at 0 is 2
        assert log2_ratio(NARROW, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_mode_value_is_dinf(self):
        mu = SHIFTED.ratio_mode
        assert log2_ratio(SHIFTED, mu) == pytest.approx(
            SHIFTED.dinf_bits, abs=1e-12
        )


class TestRatioMode:
    def test_symmetric(self):
        assert NARROW.ratio_mode == 0.0

    def test_matches_grid_argmax(self):
        assert SHIFTED.ratio_mode == pytest.approx(
            grid_ratio_argmax(SHIFTED), abs=1e-3
        )

    def test_identical_convention(self):
        assert SAME.ratio_mode == STD.loc

    def test_unbounded_ratio(self):
        wide = DistributionPair(Distribution1D(0.0, 2.0), STD)
        equal = DistributionPair(Distribution1D(1.0, 1.0), STD)
        for pair in (wide, equal):
            with pytest.raises(NoFiniteMode):
                pair.ratio_mode
            assert pair.dinf_bits == math.inf


class TestLevelSet:
    def test_zero_level_is_everything(self):
        # a quadratic log-ratio, a linear one rising and falling, and none
        linear = [DistributionPair(Distribution1D(m, 1.0), STD) for m in (1.0, -1.0)]
        for pair in [NARROW, SHIFTED, *linear, SAME]:
            ls = level_set(pair, 0.0)
            assert (ls.lo, ls.hi) == (-math.inf, math.inf)

    def test_unit_level_matches_bisection(self):
        ls = level_set(NARROW, 1.0)
        c = bisect_level_edge(NARROW, 1.0, lo=0.1, hi=5.0)
        assert ls.hi == pytest.approx(c, abs=1e-9)
        assert ls.lo == pytest.approx(-c, abs=1e-9)

    def test_above_max_is_empty(self):
        top = 2.0 ** NARROW.dinf_bits
        assert level_set(NARROW, top * 1.0001).empty
        assert not level_set(NARROW, top * 0.9999).empty

    def test_nesting(self):
        for pair in random_pairs(100, seed=1):
            l1 = np.random.default_rng(2).uniform(0.0, 1.5)
            a = level_set(pair, l1)
            b = level_set(pair, l1 + 0.5)
            if not b.empty:
                assert a.lo <= b.lo and b.hi <= a.hi

    def test_monotone_ratio_half_line(self):
        equal = DistributionPair(Distribution1D(1.0, 1.0), STD)
        ls = level_set(equal, 1.0)
        assert ls.lo == pytest.approx(0.5, abs=1e-12)  # r(x)=1 at x=1/2
        assert ls.hi == math.inf

    def test_anti_unimodal_raises(self):
        wide = DistributionPair(Distribution1D(0.0, 2.0), STD)
        with pytest.raises(NotUnimodal):
            level_set(wide, 0.5)


class TestResidualMass:
    def test_total_mass(self):
        for pair in random_pairs(10, seed=3):
            assert residual(pair, REAL_LINE, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_identical_above_one(self):
        assert residual(SAME, Interval(-2.0, 5.0), 1.0) == 0.0

    def test_matches_quadrature(self):
        val = residual(NARROW, REAL_LINE, 0.5)
        ref = numeric_residual_mass(NARROW, -math.inf, math.inf, 0.5)
        assert val == pytest.approx(ref, abs=1e-6)
        val = residual(SHIFTED, Interval(0.3, 1.4), 0.8)
        ref = numeric_residual_mass(SHIFTED, 0.3, 1.4, 0.8)
        assert val == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("m", [1.5, -1.5, 0.3, -4.0])
    def test_real_line_half_lines(self, m):
        # equal scales give a linear log-ratio, whose level sets are the
        # half-lines [x0, inf) (m > 0) and (-inf, x0] (m < 0)
        pair = DistributionPair(Distribution1D(m, 1.0), STD)
        c2, c1, _ = pair._coeffs
        assert c2 == 0.0 and (c1 > 0.0) == (m > 0.0)
        for level in (0.25, 0.5, 1.0, 2.0, 5.0, 40.0):
            val = pair.residual_real_line(level)
            assert val == pytest.approx(
                residual(pair, REAL_LINE, level), rel=0.0, abs=16 * math.ulp(1.0)
            )
            ref = numeric_residual_mass(pair, -math.inf, math.inf, level)
            assert val == pytest.approx(ref, abs=1e-7)

    def test_real_line_above_the_ratio_max(self):
        # NARROW's ratio peaks at 2: above that, the level set is empty
        for level in (2.5, 100.0):
            assert NARROW.residual_real_line(level) == 0.0
            assert residual(NARROW, REAL_LINE, level) == 0.0

    def test_monotone_in_level_and_interval(self):
        rng = np.random.default_rng(4)
        for pair in random_pairs(20, seed=5):
            levels = np.sort(rng.uniform(0.0, 2.0, 3))
            vals = [residual(pair, REAL_LINE, float(l)) for l in levels]
            assert vals[0] >= vals[1] >= vals[2]
            inner = Interval(-0.5, 0.8)
            outer = Interval(-1.5, 2.0)
            assert residual(pair, inner, 0.3) <= residual(
                pair, outer, 0.3
            ) + 1e-12


class TestDivergences:
    def test_identical(self):
        assert SAME.dkl_bits == 0.0
        assert SAME.dinf_bits == 0.0

    def test_mean_shift_closed_form(self):
        pair = DistributionPair(Distribution1D(1.0, 1.0), STD)
        assert pair.dkl_bits == pytest.approx(0.5 * math.log2(math.e), abs=1e-12)
        assert pair.dinf_bits == math.inf

    def test_narrow_quadrature_and_dinf(self):
        assert NARROW.dkl_bits == pytest.approx(
            numeric_kl_bits(NARROW), abs=1e-6
        )
        assert NARROW.dinf_bits == pytest.approx(1.0, abs=1e-12)

    def test_kl_quadrature_random(self):
        for pair in random_pairs(5, seed=6):
            assert pair.dkl_bits == pytest.approx(
                numeric_kl_bits(pair), abs=1e-6
            )

    def test_ordering(self):
        for pair in random_pairs(50, seed=7):
            assert pair.dinf_bits >= pair.dkl_bits >= 0.0


class TestPairForTargets:
    @pytest.mark.parametrize("dkl,dinf", [(3.0, 5.0), (1.0, 3.0), (0.1, 0.9), (8.0, 10.0)])
    def test_round_trip(self, dkl, dinf):
        pair = gaussian_pair_for_targets(dkl, dinf)
        assert pair.dkl_bits == pytest.approx(dkl, abs=1e-6)
        assert pair.dinf_bits == pytest.approx(dinf, abs=1e-6)
        assert pair.proposal == STD
        assert pair.target.scale < 1.0

    def test_near_floor_is_unsatisfiable_or_solved(self):
        try:
            pair = gaussian_pair_for_targets(3.0, 3.0001)
        except Unsatisfiable:
            return
        assert pair.dkl_bits == pytest.approx(3.0, abs=1e-6)
        assert pair.dinf_bits == pytest.approx(3.0001, abs=1e-6)

    def test_bad_targets(self):
        with pytest.raises(Unsatisfiable):
            gaussian_pair_for_targets(3.0, 3.0)
        with pytest.raises(Unsatisfiable):
            gaussian_pair_for_targets(0.0, 1.0)
        with pytest.raises(Unsatisfiable):
            gaussian_pair_for_targets(3.0, 3.3)  # below the m=0 floor
