import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relcode.distributions import Distribution1D, DistributionPair
from relcode.engine import (
    InvalidIndex,
    SplitRule,
    _BatchState,
    _branch_arrays,
    _quiet,
    decode,
    encode,
    path_bits,
)

from oracles import Interval, REAL_LINE

STD = Distribution1D(0.0, 1.0)
NARROW = DistributionPair(Distribution1D(0.0, 0.5), STD)
# sample splitting keeps the child holding the ratio mode (4m/3 here)
MODE_FAR_LEFT = DistributionPair(Distribution1D(-45.0, 0.5), STD)
MODE_FAR_RIGHT = DistributionPair(Distribution1D(45.0, 0.5), STD)

# The split rules live in the engine's descent step, ``_branch_arrays``;
# these tests run it on size-1 states.  A branch uniform outside [0, 1)
# forces the dyadic branch: 2.0 always keeps the left child, -1.0 the right.


def descend(pair, rule, s, x=0.0, u_branch=0.5):
    """The engine's descent from ``s`` after a rejection at ``x``:
    returns (branch bit, kept child)."""
    st = _BatchState(pair, np.zeros(1, np.uint64))
    st.lo[:], st.hi[:] = s.lo, s.hi
    st.f_lo[:], st.f_hi[:] = STD.cdf(s.lo), STD.cdf(s.hi)
    t = np.atleast_1d(STD.cdf(x))
    with _quiet():
        _branch_arrays(rule, st, 0, np.array([x]), t, np.array([u_branch]))
    return int(st.k_lo[0]), Interval(float(st.lo[0]), float(st.hi[0]))


def split_sample(s, x):
    return descend(MODE_FAR_LEFT, SplitRule.SAMPLE, s, x)[1], descend(
        MODE_FAR_RIGHT, SplitRule.SAMPLE, s, x
    )[1]


def split_dyadic(s):
    return descend(NARROW, SplitRule.DYADIC, s, u_branch=2.0)[1], descend(
        NARROW, SplitRule.DYADIC, s, u_branch=-1.0
    )[1]


def index_from_path(bits):
    return int("".join(map(str, (1, *bits))), 2)


class TestInterval:
    def test_real_line(self):
        assert REAL_LINE.lo == -math.inf and REAL_LINE.hi == math.inf
        assert not REAL_LINE.empty

    def test_empty(self):
        empty = Interval(1.0, 0.0)
        assert empty.empty
        assert not empty.lo <= 0.5 <= empty.hi

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)


class TestSplitGlobal:
    # the global rule never splits: its encodes keep the whole line and
    # never enter the descent (``simulate_bound_masses`` covers the line)
    def test_keeps_everything_left(self):
        with pytest.raises(ValueError, match="split rules"):
            descend(NARROW, SplitRule.GLOBAL, REAL_LINE)
        # every branch bit of a global index 1 << depth is the left child
        for seed in range(20):
            res = encode(NARROW, SplitRule.GLOBAL, seed)
            assert path_bits(res.heap_index) == (0,) * res.depth

    def test_finite(self):
        with pytest.raises(ValueError, match="split rules"):
            descend(NARROW, SplitRule.GLOBAL, Interval(0.0, 1.0), 0.5)


class TestSplitSample:
    def test_basic(self):
        left, right = split_sample(Interval(0.0, 1.0), 0.25)
        assert left == Interval(0.0, 0.25)
        assert right == Interval(0.25, 1.0)

    def test_real_line(self):
        left, right = split_sample(REAL_LINE, 0.0)
        assert left == Interval(-math.inf, 0.0)
        assert right == Interval(0.0, math.inf)

    def test_children_cover_parent(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = np.sort(rng.normal(size=2))
            x = float(rng.uniform(a, b))
            left, right = split_sample(Interval(float(a), float(b)), x)
            assert left.hi == right.lo == x
            assert left.lo == a and right.hi == b
            p_parent = STD.cdf(b) - STD.cdf(a)
            p_kids = (STD.cdf(left.hi) - STD.cdf(left.lo)) + (
                STD.cdf(right.hi) - STD.cdf(right.lo)
            )
            assert p_kids == pytest.approx(p_parent, abs=1e-9)


class TestSplitDyadic:
    def test_median_of_full_line(self):
        left, right = split_dyadic(REAL_LINE)
        assert left.hi == pytest.approx(0.0, abs=1e-12)
        assert right.lo == left.hi

    def test_positive_half_line(self):
        # bisection oracle for F(c) = 0.75
        lo, hi = 0.0, 10.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if STD.cdf(mid) < 0.75:
                lo = mid
            else:
                hi = mid
        left, _ = split_dyadic(Interval(0.0, math.inf))
        assert left.hi == pytest.approx(0.5 * (lo + hi), abs=1e-6)
        assert left.hi == pytest.approx(0.6744897501960817, abs=1e-6)

    def test_equal_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = np.sort(rng.normal(scale=2.0, size=2))
            left, right = split_dyadic(Interval(float(a), float(b)))
            p_left = STD.cdf(left.hi) - STD.cdf(left.lo)
            p_right = STD.cdf(right.hi) - STD.cdf(right.lo)
            assert abs(p_left - p_right) < 1e-9

    def test_depth_d_mass(self):
        # starting from the whole line, depth-d pieces carry mass 2^-d
        iv = REAL_LINE
        rng = np.random.default_rng(2)
        for d in range(1, 40):
            left, right = split_dyadic(iv)
            iv = left if rng.random() < 0.5 else right
            mass = STD.cdf(iv.hi) - STD.cdf(iv.lo)
            assert abs(mass - 2.0**-d) < 1e-9 * d

    def test_zero_mass(self):
        # 1,100 left turns halve the proposal mass below the smallest double
        with pytest.raises(InvalidIndex):
            decode(STD, SplitRule.DYADIC, 0, 1 << 1100)


class TestHeapIndex:
    def test_root_path(self):
        assert path_bits(1) == ()

    def test_examples(self):
        assert path_bits(6) == (1, 0)
        assert path_bits(11) == path_bits(5) + (1,)
        assert path_bits(11) == (0, 1, 1)
        assert path_bits(13) == (1, 0, 1)

    def test_depth(self):
        # a node's depth, index.bit_length() - 1, is its path's length
        for index, depth in ((1, 0), (2, 1), (3, 1), (1 << 40, 40)):
            assert len(path_bits(index)) == index.bit_length() - 1 == depth

    @given(st.lists(st.integers(0, 1), max_size=60))
    def test_path_round_trip(self, bits):
        idx = index_from_path(bits)
        assert path_bits(idx) == tuple(bits)
        assert idx.bit_length() - 1 == len(bits)

    @given(st.integers(1, 1 << 200))
    def test_bits_reconstruct_index(self, idx):
        assert index_from_path(path_bits(idx)) == idx
