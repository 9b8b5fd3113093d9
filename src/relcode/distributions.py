"""One-dimensional target/proposal distribution pairs and density-ratio services.

The coding engine never touches densities directly: everything it needs is
expressed through the operations here (log density ratio, ratio mode,
superlevel sets of the ratio, residual mass above a level, divergences).
Both distributions of a pair are Gaussian.

All divergences and codelengths are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

LN2 = math.log(2.0)

__all__ = [
    "Distribution1D",
    "DistributionPair",
    "NoFiniteMode",
    "NotUnimodal",
    "Unsatisfiable",
    "gaussian_pair_for_targets",
]


class NoFiniteMode(ValueError):
    """The density ratio has no finite argmax (sup log-ratio is infinite)."""


class NotUnimodal(ValueError):
    """The density ratio is not unimodal, so superlevel sets are not intervals."""


class Unsatisfiable(ValueError):
    """No Gaussian pair attains the requested divergence targets."""


@dataclass(frozen=True)
class Distribution1D:
    """A univariate Gaussian with mean ``loc`` and standard deviation ``scale``."""

    loc: float
    scale: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ValueError("loc and scale must be finite")
        if self.scale <= 0.0:
            raise ValueError("scale must be strictly positive")

    def cdf(self, x):
        return ndtr((x - self.loc) / self.scale)

    def quantile(self, u):
        return self.loc + self.scale * ndtri(u)


@dataclass(frozen=True)
class DistributionPair:
    """Target Q and proposal P with cached density-ratio functionals.

    The log density ratio of two Gaussians is the quadratic
    ``ln r(x) = c2*x^2 + c1*x + c0``; all ratio services (mode, level sets,
    residual masses, divergences) are closed forms in these coefficients.
    The ratio is unimodal with a finite mode iff ``c2 < 0``, i.e. iff the
    target is strictly narrower than the proposal.
    """

    target: Distribution1D
    proposal: Distribution1D

    @cached_property
    def _coeffs(self) -> tuple[float, float, float]:
        mq, sq = self.target.loc, self.target.scale
        mp, sp = self.proposal.loc, self.proposal.scale
        c2 = 0.5 / (sp * sp) - 0.5 / (sq * sq)
        c1 = mq / (sq * sq) - mp / (sp * sp)
        c0 = math.log(sp / sq) - mq * mq / (2 * sq * sq) + mp * mp / (2 * sp * sp)
        return c2, c1, c0

    def log_ratio_nats(self, x):
        """Natural log of dQ/dP at x (scalar or array)."""
        c2, c1, c0 = self._coeffs
        return (c2 * x + c1) * x + c0

    @property
    def identical(self) -> bool:
        c2, c1, _ = self._coeffs
        return c2 == 0.0 and c1 == 0.0

    @property
    def has_finite_mode(self) -> bool:
        return self._coeffs[0] < 0.0 or self.identical

    @cached_property
    def ratio_mode(self) -> float:
        """Argmax of the density ratio; raises NoFiniteMode when unbounded."""
        c2, c1, _ = self._coeffs
        if self.identical:
            # constant ratio: any point qualifies; use the proposal location
            return self.proposal.loc
        if c2 >= 0.0:
            raise NoFiniteMode(
                "density ratio is unbounded (target scale >= proposal scale)"
            )
        return -c1 / (2.0 * c2)

    @cached_property
    def dkl_bits(self) -> float:
        mq, sq = self.target.loc, self.target.scale
        mp, sp = self.proposal.loc, self.proposal.scale
        nats = (
            math.log(sp / sq)
            + (sq * sq + (mq - mp) ** 2) / (2.0 * sp * sp)
            - 0.5
        )
        return nats / LN2

    @cached_property
    def dinf_bits(self) -> float:
        if self.identical:
            return 0.0
        c2, _, _ = self._coeffs
        if c2 >= 0.0:
            return math.inf
        return self.log_ratio_nats(self.ratio_mode) / LN2

    def check_unimodal(self) -> None:
        """Raise NotUnimodal when the ratio opens upward (``c2 > 0``, in any
        row), so that its superlevel sets are not intervals."""
        if np.count_nonzero(self._coeffs[0] > 0.0):
            raise NotUnimodal(
                "superlevel sets are not intervals (target wider than proposal)"
            )

    def level_bounds(self, level):
        """Superlevel-set endpoints for an array (or scalar) of levels.

        Returns ``(lo, hi)`` with ``lo > hi`` encoding the empty set.  Raises
        NotUnimodal when the ratio opens upward and the set is not an interval.
        """
        self.check_unimodal()
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._level_bounds(level)

    def _level_bounds(self, level):
        """:meth:`level_bounds` of a pair known to be unimodal, under the
        caller's error state.  Level 0 (``lnl = -inf``) needs no case of its
        own: the infinities give the whole line on every branch."""
        c2, c1, c0 = self._coeffs
        lnl = np.log(level)
        disc = c1 * c1 - 4.0 * c2 * (c0 - lnl)
        root = np.sqrt(np.maximum(disc, 0.0))
        x_a = (-c1 - root) / (2.0 * c2)
        x_b = (-c1 + root) / (2.0 * c2)
        empty = disc < 0.0
        lo = np.where(empty, np.inf, np.minimum(x_a, x_b))
        hi = np.where(empty, -np.inf, np.maximum(x_a, x_b))
        flat = c2 == 0.0
        if np.count_nonzero(flat):
            # a linear log-ratio (c1 != 0) has a half-line as its level set;
            # identical laws (r == 1) have the whole line or nothing
            x0 = (lnl - c0) / c1
            full = lnl <= 0.0
            lo_flat = np.where((c1 < 0.0) | full, -np.inf, np.inf)
            hi_flat = np.where((c1 > 0.0) | full, np.inf, -np.inf)
            lo = np.where(flat, np.where(c1 > 0.0, x0, lo_flat), lo)
            hi = np.where(flat, np.where(c1 < 0.0, x0, hi_flat), hi)
        return lo, hi

    @cached_property
    def _real_line_consts(self) -> tuple[float, ...]:
        """``residual_real_line``'s per-pair constants: the ratio
        coefficients and each law's ``(loc, scale * sqrt(2))``.  Raises
        NotUnimodal (and so caches nothing) for a ratio that opens upward."""
        self.check_unimodal()
        sqrt2 = math.sqrt(2.0)
        t, p = self.target, self.proposal
        return (*self._coeffs, t.loc, t.scale * sqrt2, p.loc, p.scale * sqrt2)

    def residual_real_line(self, level: float) -> float:
        """Scalar residual mass of the whole line above ``level``.

        Pure ``math`` implementation used by tight per-step recurrences; may
        differ from :meth:`residual_above` in the last ulp.
        """
        if level <= 0.0:
            return 1.0
        c2, c1, c0, mq, sq, mp, sp = self._real_line_consts
        lnl = math.log(level)
        if c2 == 0.0:
            if c1 == 0.0:
                return 0.0 if lnl > 0.0 else 1.0 - level
            x0 = (lnl - c0) / c1
            lo, hi = (x0, math.inf) if c1 > 0.0 else (-math.inf, x0)
        else:
            disc = c1 * c1 - 4.0 * c2 * (c0 - lnl)
            if disc <= 0.0:
                return 0.0
            root = math.sqrt(disc)
            x_a = (-c1 - root) / (2.0 * c2)
            x_b = (-c1 + root) / (2.0 * c2)
            lo, hi = min(x_a, x_b), max(x_a, x_b)
        # a law's CDF is 0.5 * erfc(-(x - loc) / (scale * sqrt(2))); erfc is
        # exactly 2 at -inf and 0 at +inf, so infinite ends need no branch
        erfc = math.erfc
        q = 0.5 * erfc(-(hi - mq) / sq) - 0.5 * erfc(-(lo - mq) / sq)
        p = 0.5 * erfc(-(hi - mp) / sp) - 0.5 * erfc(-(lo - mp) / sp)
        return min(max(q - level * p, 0.0), 1.0)

    def residual_above(self, lo, hi, level):
        """Residual mass of ``[lo, hi]`` above ``level``, vectorized.

        Computes Q(A) - level * P(A) where A is [lo, hi] intersected with
        {r >= level}, clamped to [0, 1].
        """
        return self.residuals_between((lo, hi), level, self.level_bounds(level))[0]

    def residuals_between(self, ends, level, bounds):
        """:meth:`residual_above` of each interval between consecutive
        ``ends`` (nondecreasing), all at one ``level`` with the level set's
        ``bounds`` from :meth:`level_bounds`: a list one shorter than ``ends``.

        Each end is clamped into the level set ``[ls_lo, ls_hi]`` once, as
        ``min(max(e, ls_lo), ls_hi)``, and both laws' CDFs are taken there
        once, so adjacent intervals share their common end's two ``ndtr``
        calls.  This is exact.  An interval ``[e, f]`` meets the level set
        in ``[max(e, ls_lo), min(f, ls_hi)]``.  Where that is nonempty it
        equals the clamped ``[e', f']``; where it is empty, or the level set
        is (``ls_lo > ls_hi``), ``[e', f']`` is empty too, and the residual
        is 0 under both.  The ends are worked through one at a time, and
        each array is dropped or overwritten once it has been used, so no
        more full-size arrays are live at once than in a two-end call.
        """
        ls_lo, ls_hi = bounds
        t, p = self.target, self.proposal
        a = np.minimum(np.maximum(ends[0], ls_lo), ls_hi)
        q_a, p_a = ndtr((a - t.loc) / t.scale), ndtr((a - p.loc) / p.scale)
        out = []
        for e in ends[1:]:
            e = np.minimum(np.maximum(e, ls_lo), ls_hi)
            nonempty, a = a < e, e
            q_e = ndtr((e - t.loc) / t.scale)
            res, q_a = q_e - q_a, q_e
            p_e = ndtr((e - p.loc) / p.scale)
            p_mass, p_a = p_e - p_a, p_e
            # Q(A) - level * P(A), zero where A is empty, clamped to [0, 1]
            p_mass *= level
            res -= p_mass
            del p_mass
            res = np.where(nonempty, res, 0.0)
            out.append(np.minimum(np.maximum(res, 0.0), 1.0))
        return out


class _LawRows(Distribution1D):
    """Gaussians with per-run ``loc`` and ``scale`` arrays; each row was
    checked when its own law was built."""

    def __post_init__(self) -> None:
        pass


class _PairRows(DistributionPair):
    """One pair per run, held as rows of per-run parameters.

    ``rows`` is a ``(8, n)`` array: the ratio coefficients ``c2, c1, c0``,
    the ratio mode (NaN without a finite one), and each law's loc and scale.
    Every service inherited from :class:`DistributionPair` runs on the rows
    elementwise, by the same expressions as for one pair.
    """

    def __init__(self, rows: np.ndarray):
        c2, c1, c0, mode, mq, sq, mp, sp = rows
        object.__setattr__(self, "target", _LawRows(mq, sq))
        object.__setattr__(self, "proposal", _LawRows(mp, sp))
        # fill the cached properties the kernel reads
        self.__dict__.update(rows=rows, _coeffs=(c2, c1, c0), ratio_mode=mode)

    @classmethod
    def of(cls, pairs: list[DistributionPair], ids: np.ndarray) -> _PairRows:
        """Rows for runs whose pair is ``pairs[ids[i]]``: one row per
        distinct pair, indexed out per run."""
        table = np.array([
            (*p._coeffs, p.ratio_mode if p.has_finite_mode else math.nan,
             p.target.loc, p.target.scale, p.proposal.loc, p.proposal.scale)
            for p in pairs
        ]).T
        return cls(table[:, ids])

    def take(self, runs) -> _PairRows:
        """The rows of the selected runs (an index array or boolean mask)."""
        return _PairRows(self.rows[:, runs])


def _kl_gap_nats(s: float) -> float:
    # g(s) = s^2 - 1 - 2 ln s: twice the KL (nats) of N(0, s^2) from N(0, 1)
    return s * s - 1.0 - 2.0 * math.log(s)


def _dinf_nats_at(s: float, dkl_nats2: float) -> float:
    # sup log-ratio (nats) of the pair N(m(s), s^2) || N(0,1) whose KL matches
    # dkl_nats2 / 2; m^2 follows from the KL closed form.
    m2 = dkl_nats2 - _kl_gap_nats(s)
    return -math.log(s) + m2 / (2.0 * (1.0 - s * s))


def gaussian_pair_for_targets(dkl_bits: float, dinf_bits: float) -> DistributionPair:
    """Construct Q = N(m, s^2), P = N(0, 1) with the requested divergences.

    Solves the two divergence equations by bisection on s in (0, 1): for any
    feasible s the mean offset m follows in closed form from the KL target,
    and the resulting sup log-ratio is strictly increasing in s.  Raises
    Unsatisfiable when the infinity-divergence target is below the feasible
    floor for the given KL (the floor is attained at m = 0).
    """
    if not (dinf_bits > dkl_bits > 0.0):
        raise Unsatisfiable("targets must satisfy dinf > dkl > 0")
    c = 2.0 * LN2 * dkl_bits  # = g(s0) at the m = 0 boundary
    lo, hi = 1e-12, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _kl_gap_nats(mid) > c:
            lo = mid
        else:
            hi = mid
    s0 = hi  # smallest feasible scale (m = 0)
    dinf_floor = _dinf_nats_at(s0, c) / LN2
    target_nats = dinf_bits * LN2
    if dinf_bits <= dinf_floor:
        raise Unsatisfiable(
            f"dinf={dinf_bits} not attainable at dkl={dkl_bits}; "
            f"feasible range is ({dinf_floor:.6f}, inf)"
        )
    lo, hi = s0, 1.0 - 1e-15
    if _dinf_nats_at(hi, c) < target_nats:
        raise Unsatisfiable(
            f"dinf={dinf_bits} too large to resolve at dkl={dkl_bits}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _dinf_nats_at(mid, c) < target_nats:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    m = math.sqrt(max(c - _kl_gap_nats(s), 0.0))
    pair = DistributionPair(
        target=Distribution1D(loc=m, scale=s),
        proposal=Distribution1D(loc=0.0, scale=1.0),
    )
    if (
        abs(pair.dkl_bits - dkl_bits) > 1e-6
        or abs(pair.dinf_bits - dinf_bits) > 1e-6
    ):
        raise Unsatisfiable(
            f"solver failed to meet targets ({dkl_bits}, {dinf_bits}); "
            f"got ({pair.dkl_bits}, {pair.dinf_bits})"
        )
    return pair
