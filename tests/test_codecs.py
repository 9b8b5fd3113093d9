import math
import signal
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from datetime import timedelta
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relcode.codecs import (
    ArithmeticDecoder,
    ArithmeticEncoder,
    BitReader,
    Bits,
    DecodeError,
    OutOfRange,
    PrecisionExhausted,
    Unfittable,
    ZetaModel,
    decode_joint,
    deserialize,
    elias_delta_decode,
    elias_delta_encode,
    elias_delta_length,
    elias_gamma_decode,
    elias_gamma_encode,
    encode_joint,
    encode_payload,
    decode_payload,
    fit_zeta,
    quantize_p0,
    serialize,
)
from relcode.codecs import arith, zeta
from relcode.distributions import gaussian_pair_for_targets
from relcode.engine import (
    GLOBAL_STEP_CAP,
    InvalidIndex,
    RecResult,
    SplitRule,
    decode,
    encode,
    encode_batch,
)
from relcode.randomness import derive_seeds

from oracles import (
    head_cum,
    mean_log2,
    narrow_per_shift,
    zeta_cdf_before,
    zeta_norm,
)

PAIR = gaussian_pair_for_targets(3.0, 5.0)
# the bench vector defaults: 50 dimensions, KL 0.05 to 0.5 bits
VECTOR_GRID = [
    gaussian_pair_for_targets(kl, kl + 0.75) for kl in (0.05 + 0.45 * d / 49 for d in range(50))
]
# one delta-coded dimension and exponents at both ends of the fitted range
JOINT_MODELS = [
    ZetaModel(zeta.MIN_EXPONENT),
    None,
    ZetaModel(1.05),
    ZetaModel(2.0),
    ZetaModel(zeta.MAX_EXPONENT),
]
# the guess, at most 62 gallop probes and 62 bisection steps over
# 1..N_MAX, and one call of slack
MAX_SEARCH_CALLS = 2 * 62 + 2


@contextmanager
def watchdog(seconds):
    """A call still running after ``seconds`` raises TimeoutError, so a
    decoder that never returns fails its test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def counting_cdf_before(monkeypatch) -> list:
    """Counts ZetaModel.cdf_before calls in the returned one-item list."""
    calls = [0]
    cdf_before = ZetaModel.cdf_before

    def counted(self, n):
        calls[0] += 1
        return cdf_before(self, n)

    monkeypatch.setattr(ZetaModel, "cdf_before", counted)
    return calls


class TestBits:
    def test_round_trip_01(self):
        b = Bits("0110100")
        assert b.to01() == "0110100"
        assert len(b) == 7

    def test_concat_associative(self):
        a, b, c = Bits("01"), Bits("1"), Bits("001")
        assert (a + b) + c == a + (b + c)

    def test_bytes_round_trip(self):
        b = Bits("101100111000101")
        packed = b.to_bytes()
        assert len(packed) == 2
        assert Bits.from_bytes(packed, nbits=len(b)) == b

    def test_reader_exhaustion(self):
        r = BitReader(Bits("1"))
        assert r.read_bit() == 1
        with pytest.raises(DecodeError):
            r.read_bit()

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Bits([0, 2])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=200), st.data())
    def test_matches_list_semantics(self, lst, data):
        n = len(lst)
        b = Bits(lst)
        text = "".join(map(str, lst))
        assert len(b) == n and b.to01() == text
        assert Bits(text) == b
        cut = data.draw(st.integers(0, n))
        assert Bits(lst[:cut]) + Bits(lst[cut:]) == b
        packed = b.to_bytes()
        assert len(packed) == (n + 7) // 8
        assert Bits.from_bytes(packed, n) == b
        reader = BitReader(b)
        assert reader.read_int(cut) == int(text[:cut] or "0", 2)
        assert reader.remaining == n - cut
        with pytest.raises(DecodeError):
            reader.read_int(n - cut + 1)
        value = int(text or "0", 2)
        assert Bits.of(value, n) == b
        for bad in (value | 1 << n, -1 - value):
            with pytest.raises(ValueError):
                Bits.of(bad, n)


class TestElias:
    def test_gamma_reference_values(self):
        assert elias_gamma_encode(1).to01() == "1"
        assert elias_gamma_encode(2).to01() == "010"
        assert elias_gamma_encode(5).to01() == "00101"

    def test_delta_reference_values(self):
        assert elias_delta_encode(1).to01() == "1"
        assert elias_delta_encode(17).to01() == "001010001"

    def test_rejects_nonpositive(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                elias_gamma_encode(bad)
            with pytest.raises(ValueError):
                elias_delta_encode(bad)

    def test_truncated_stream(self):
        with pytest.raises(DecodeError):
            elias_gamma_decode(BitReader(Bits("001")))

    def test_gamma_prefix_limit(self):
        # docs/FORMAT.md: at most 4,096 leading zeros, however many bits follow
        ok = "0" * 4096 + "1" + "0" * 4096
        assert elias_gamma_decode(BitReader(Bits(ok))) == 1 << 4096
        with pytest.raises(DecodeError, match="too long"):
            elias_gamma_decode(BitReader(Bits("0" + ok + "0")))

    @given(st.integers(1, 10**5))
    def test_round_trip_and_lengths(self, n):
        g = elias_gamma_encode(n)
        assert len(g) == 2 * math.floor(math.log2(n)) + 1
        r = BitReader(g)
        assert elias_gamma_decode(r) == n and r.remaining == 0
        d = elias_delta_encode(n)
        lg = math.floor(math.log2(n))
        assert len(d) == lg + 2 * math.floor(math.log2(lg + 1)) + 1
        r = BitReader(d)
        assert elias_delta_decode(r) == n and r.remaining == 0

    def test_delta_length_matches_code(self):
        powers = [(1 << k) + d for k in range(1, 131) for d in (-1, 0, 1)]
        for n in [*range(1, (1 << 16) + 1), *powers]:
            assert elias_delta_length(n) == len(elias_delta_encode(n)), n
        for bad in (0, -3):
            with pytest.raises(ValueError):
                elias_delta_length(bad)

    def test_prefix_free_concatenation(self):
        rng = np.random.default_rng(0)
        values = [int(v) for v in rng.integers(1, 10**6, 100)]
        for enc, dec in (
            (elias_gamma_encode, elias_gamma_decode),
            (elias_delta_encode, elias_delta_decode),
        ):
            stream = Bits()
            for v in values:
                stream = stream + enc(v)
            reader = BitReader(stream)
            assert [dec(reader) for _ in values] == values
            assert reader.remaining == 0


class TestArithmeticCoder:
    def test_overhead_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(1, 60))
            probs = rng.random(k) * 0.98 + 0.01
            bits = (rng.random(k) < probs).astype(int)  # correlated with model
            enc = ArithmeticEncoder()
            ideal = 0.0
            for b, p in zip(bits, probs):
                enc.encode_bit(int(b), quantize_p0(p))
                ideal += -math.log2(p if b == 0 else 1.0 - p)
            code = enc.finish()
            assert len(code) <= ideal + 2.0 + 1e-9

    def test_decode_exact_consumption_with_tail(self):
        rng = np.random.default_rng(2)
        for trial in range(300):
            k = int(rng.integers(1, 50))
            probs = rng.random(k) * 0.98 + 0.01
            bits = [int(b) for b in rng.random(k) < 0.5]
            enc = ArithmeticEncoder()
            for b, p in zip(bits, probs):
                enc.encode_bit(b, quantize_p0(p))
            code = enc.finish()
            tail = Bits([int(b) for b in rng.random(int(rng.integers(0, 40))) < 0.5])
            reader = BitReader(code + tail)
            dec = ArithmeticDecoder(reader)
            assert [dec.decode_bit(quantize_p0(p)) for p in probs] == bits
            dec.finish()
            assert reader.pos == len(code)

    def test_general_intervals(self):
        cum = [0, 5, 9, 40, 100]
        rng = np.random.default_rng(3)
        syms = [int(s) for s in rng.integers(0, 4, 500)]
        enc = ArithmeticEncoder()
        for s in syms:
            enc.encode(cum[s], cum[s + 1], 100)
        code = enc.finish()
        dec = ArithmeticDecoder(BitReader(code))
        out = []
        for _ in syms:
            v = dec.decode_target(100)
            s = max(i for i in range(4) if cum[i] <= v)
            dec.consume(cum[s], cum[s + 1], 100)
            out.append(s)
        assert out == syms

    def test_narrow_counts_the_per_shift_cases(self):
        # from every state a long random stream passes through, the coder's
        # ends are those of the one-shift-at-a-time renormalization, which
        # takes ``emits`` shifts of cases 1 and 2, then ``waits`` of case 3
        rng = np.random.default_rng(4)
        low, high = 0, arith.FULL - 1
        waited = 0
        for _ in range(5000):
            total = int(rng.choice([2, 2**32, 2**48 + 1, 2**60]))
            c_lo = int(rng.integers(0, total - 1))
            c_hi = c_lo + 1 if rng.random() < 0.5 else int(rng.integers(c_lo + 1, total + 1))
            want_low, want_high, cuts = narrow_per_shift(low, high, c_lo, c_hi, total)
            _, low, high, emits, waits = arith._narrow(low, high, c_lo, c_hi, total)
            assert (low, high) == (want_low, want_high)
            assert [cut == arith.QUARTER for cut in cuts] == [False] * emits + [True] * waits
            waited += waits > 0
        assert waited >= 100

    @pytest.mark.parametrize(
        "c_lo, c_hi, total",
        [
            (0, 0, 2**48),
            (5, 5, 2**48),
            (2**20, 2**20, 2**48),
            (0, 2**48 + 1, 2**48),
            (7, 3, 2**48),
            (0, 1, 2**61),
            (0, 1, 2**64),
        ],
        # the total shows in the id only where it is not 2**48
        ids=["0-0", "5-5", "1048576-1048576", "0-281474976710657", "7-3",
             "0-1-2^61", "0-1-2^64"],
    )
    def test_decoder_rejects_empty_or_outside_interval(self, c_lo, c_hi, total):
        # as the encoder does; an empty interval used to renormalize forever,
        # and so did a total past the register headroom
        with pytest.raises(PrecisionExhausted):
            ArithmeticEncoder().encode(c_lo, c_hi, total)
        dec = ArithmeticDecoder(BitReader(Bits("0110")))
        with watchdog(1.0), pytest.raises(PrecisionExhausted):
            dec.consume(c_lo, c_hi, total)

    def test_truncated_joint_stream_raises_or_is_a_shorter_codeword(self):
        # every dim modeled, so no delta read can raise in the coder's place
        models = [m for m in JOINT_MODELS if m is not None]
        stream = encode_joint([3, 1, 2, 2], models)
        raised = 0
        for cut in range(len(stream)):
            try:
                out = decode_joint(Bits(map(int, stream.to01()[:cut])), models)
            except DecodeError:
                raised += 1
                continue
            # no end marker: a codeword that ends inside the cut is valid
            assert len(encode_joint(out, models)) <= cut
        assert raised > 0

    def test_joint_stream_escapes_an_empty_interval(self):
        # 40 under the steepest model has mass far below 2**-48, so its
        # interval on the grid is empty: it codes the escape, then a delta code
        models = [m for m in JOINT_MODELS if m is not None]
        steep = models[-1]
        assert steep.quantized_cum(40) == steep.quantized_cum(41)
        stream = encode_joint([3, 1, 2, 40], models)
        assert decode_joint(stream, models) == [3, 1, 2, 40]
        assert stream.to01().endswith(elias_delta_encode(40).to01())

    @pytest.mark.parametrize("indices, models", [
        ([5, 6, 7], [ZetaModel(2.0)]),
        ([5], [ZetaModel(2.0), ZetaModel(3.0)]),
    ])
    def test_joint_stream_needs_one_model_per_index(self, indices, models):
        # a zip over the two lists used to code the shorter one silently
        with pytest.raises(ValueError, match="one model"):
            encode_joint(indices, models)

    @pytest.mark.parametrize("call", [
        lambda m: encode_joint([5000.5], [m]),
        lambda m: m.pmf(4096.5),
        lambda m: m.pmf(2.5),
        lambda m: m.cdf_before(5000.5),
        lambda m: m.cdf_before(2.5),
    ], ids=["encode_joint-5000.5", "pmf-4096.5", "pmf-2.5", "cdf_before-5000.5",
            "cdf_before-2.5"])
    def test_non_integer_index_raises(self, call):
        # a non-integer index is refused, never coded as a neighbouring integer
        with pytest.raises(TypeError):
            call(ZetaModel(2.0))

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.lists(
            st.tuples(
                st.one_of(
                    st.none(),
                    st.floats(zeta.MIN_EXPONENT, zeta.MAX_EXPONENT),
                ),
                # small indices escape under steep models, nearly all large
                # ones under every model, and every one past N_MAX (split-rule
                # heap indices reach 2**193)
                st.one_of(
                    st.integers(1, 64),
                    st.integers(1, 2**20),
                    st.integers(1, zeta.N_MAX),
                    st.integers(zeta.N_MAX, 2**193),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_joint_stream_round_trips_every_index(self, dims):
        models = [None if s is None else ZetaModel(s) for s, _ in dims]
        indices = [n for _, n in dims]
        assert decode_joint(encode_joint(indices, models), models) == indices


class TestZeta:
    def test_normalizer_against_dense_sum(self):
        # independent reference: dense summation to 2**22 plus an integral
        # remainder bounded below 1e-7
        lam = 1.7
        n = np.arange(1, 1 << 22, dtype=np.float64)
        dense = float((n ** -lam).sum())
        a = float(1 << 22) - 0.5
        remainder = a ** (1 - lam) / (lam - 1)
        model = ZetaModel(lam)
        # the model truncates at N_MAX; the reference sums everything, and
        # the strict-truncation difference is below the quadrature slack
        assert model._norm == pytest.approx(dense + remainder, abs=2e-6)

    def test_mean_log_fit_against_dense_sum(self):
        model = fit_zeta([1.0] * 5)
        lam = model.exponent
        n = np.arange(1, 1 << 22, dtype=np.float64)
        w = n ** -lam
        dense_mean = float((w * np.log2(n)).sum() / w.sum())
        assert dense_mean == pytest.approx(1.0, abs=1e-4)
        assert mean_log2(model.exponent) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_point_mass(self):
        model = fit_zeta([0.0] * 8)
        assert model.exponent == 20.0
        assert len(encode_joint([1], [model])) <= 2

    def test_unfittable(self):
        with pytest.raises(Unfittable):
            fit_zeta([55.0] * 3)

    @pytest.mark.parametrize("target", [1e-6, 0.05, 0.5, 1.0, 3.0, 9.5, 25.0])
    def test_bisection_stops_at_its_fixed_point(self, target, monkeypatch):
        # the fit stops at the first exponent whose exact mean is within
        # 2**-40 of the target, after one mean and slope per step
        zeta._fittable_range()  # cached before the count starts
        step = zeta._mean_and_slope
        calls = []

        def counted(s):
            out = step(s)
            calls.append((s, out[0]))
            return out

        monkeypatch.setattr(zeta, "_mean_and_slope", counted)
        exponent = fit_zeta([target]).exponent
        assert calls[-1][0] == exponent
        close = [abs(f - target) <= 2.0**-40 * target for _, f in calls]
        assert close == [False] * (len(calls) - 1) + [True]
        assert len(calls) <= 60
        self._assert_exact_fits([target])

    def test_vector_grid_fits_take_at_most_5_steps(self, monkeypatch):
        # the Newton steps on the calibration sets the bench vector fits
        from relcode.bench import vector

        zeta._fittable_range()  # cached before the count starts
        step = zeta._mean_and_slope
        calls, counts = [], []
        monkeypatch.setattr(zeta, "_mean_and_slope", lambda s: calls.append(s) or step(s))
        fit = vector.fit_zeta

        def counting_fit(log_indices):
            calls.clear()
            model = fit(log_indices)
            counts.append(len(calls))
            # the range ends' means come from the cache
            assert zeta.MIN_EXPONENT not in calls and zeta.MAX_EXPONENT not in calls
            return model

        monkeypatch.setattr(vector, "fit_zeta", counting_fit)
        for seed in range(3):
            assert vector.encode_vector(VECTOR_GRID, seed).round_trip_ok
        assert len(counts) == 3 * len(VECTOR_GRID)
        assert max(counts) <= 5, counts

    @staticmethod
    def _exact_fit(target):
        # reference: the bisection with every step read from the 4,096-term mean
        lo, hi = zeta.MIN_EXPONENT, zeta.MAX_EXPONENT
        mids = []
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            mids.append(mid)
            if mean_log2(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), mids

    def _assert_exact_fits(self, targets):
        # the exact mean at the fitted exponent is within 2**-40 of the
        # target (or the bracket closed on MIN_EXPONENT, above the whole
        # fittable range's exact means), and the exponent is the exact
        # bisection's to 1e-10
        next_to_min = math.nextafter(zeta.MIN_EXPONENT, math.inf)
        for target in targets:
            exponent = fit_zeta([target]).exponent
            close = abs(mean_log2(exponent) - target) <= 2.0**-40 * target
            assert close or exponent <= next_to_min, target
            expected, _ = self._exact_fit(target)
            assert abs(exponent - expected) <= 1e-10 * expected, target

    def test_fit_matches_exact_bisection_on_random_targets(self):
        top, bottom = zeta._fittable_range()
        rng = np.random.default_rng(9)
        uniform = rng.uniform(bottom, top, 250)
        log_uniform = np.exp(rng.uniform(math.log(bottom), math.log(top), 250))
        targets = [float(t) for t in np.concatenate([uniform, log_uniform])]
        self._assert_exact_fits([t for t in targets if bottom < t < top])

    def test_fit_matches_exact_bisection_at_visited_midpoints(self):
        # targets equal to f(mid) for mids the exact loop visits, and 1 ulp
        # either side: the comparisons with the smallest possible margins
        targets = []
        for base in (0.3, 4.0):
            _, mids = self._exact_fit(base)
            for mid in mids[::4] + mids[-8:]:
                f = mean_log2(mid)
                targets += [math.nextafter(f, 0.0), f, math.nextafter(f, math.inf)]
        self._assert_exact_fits(targets)

    def test_fit_matches_exact_bisection_at_grid_means(self, monkeypatch):
        # targets at the cached grid's inner means, where a bracket end is
        # the root, and near them; a fit returns its last step, or the grid
        # exponent whose mean is within 2**-40 of the target
        grid, _, means = zeta._mean_grid()
        targets = [float(m) * (1.0 + d) for m in means[1:-1] for d in (0.0, -1e-12, 1e-12, -1e-6, 1e-6)]
        self._assert_exact_fits(targets)
        step = zeta._mean_and_slope
        calls = []
        monkeypatch.setattr(zeta, "_mean_and_slope", lambda s: calls.append(s) or step(s))
        for target in targets:
            calls.clear()
            exponent = fit_zeta([target]).exponent
            assert exponent == calls[-1] if calls else exponent in grid, target
            assert len(calls) <= 5, target

    def test_fit_matches_exact_bisection_at_range_ends(self):
        top, bottom = zeta._fittable_range()
        below_top = [math.nextafter(top, 0.0), math.nextafter(math.nextafter(top, 0.0), 0.0)]
        below_top += [top * (1.0 - 10.0**-k) for k in range(3, 16)]
        above_bottom = [math.nextafter(bottom, math.inf)]
        above_bottom += [bottom * (1.0 + 10.0**-k) for k in range(1, 16)]
        self._assert_exact_fits(below_top + above_bottom)

    def test_range_end_rule(self):
        # Unfittable at or above the exact mean at MIN_EXPONENT, and
        # MAX_EXPONENT at or below the exact mean at MAX_EXPONENT
        top, bottom = zeta._fittable_range()
        for target in (top, math.nextafter(top, math.inf)):
            with pytest.raises(Unfittable):
                fit_zeta([target])
        assert fit_zeta([math.nextafter(top, 0.0)]).exponent < 1.0 + 2e-6
        for target in (bottom, math.nextafter(bottom, 0.0)):
            assert fit_zeta([target]).exponent == zeta.MAX_EXPONENT
        above = math.nextafter(bottom, math.inf)
        assert abs(mean_log2(fit_zeta([above]).exponent) - above) <= 2.0**-40 * above

    @staticmethod
    def _check_tail_log_moment(k):
        # the closed form (f(a) - f(b)) / eps**(k+1), f(L) = e**(-eps L)
        # P_k(eps L) with P_0 = 1, P_1(x) = x + 1 and P_2(x) = x**2 + 2x + 2,
        # at 40 digits, on the float ends
        for eps in (1e-6, 1e-5, 1e-4, 1e-2, 0.5, 19.0):
            with localcontext() as ctx:
                ctx.prec = 40
                e, a, b = Decimal(eps), Decimal(zeta._LN_LO), Decimal(zeta._LN_HI)
                fa, fb = (
                    (-x).exp() * (1, x + 1, x * x + 2 * x + 2)[k] for x in (e * a, e * b)
                )
                want = (fa - fb) / e ** (k + 1)
            got = zeta._tail_log_moments(eps)[k]
            assert abs(Decimal(got) / want - 1) <= Decimal("1e-14"), eps

    def test_tail_normalizer_against_decimal(self):
        self._check_tail_log_moment(0)

    def test_tail_log_moment_against_decimal(self):
        self._check_tail_log_moment(1)

    def test_tail_log_sq_moment_against_decimal(self):
        self._check_tail_log_moment(2)

    def test_newton_slope_matches_central_difference(self):
        # d ln(mean) / du at u = ln(s - 1), against the exact means a step
        # either side in u (its truncation error is about 2e-7)
        h = 1e-3
        for s in (1.0 + 1e-6, 1.0 + 1e-3, 1.05, 2.0, 19.0):
            u = math.log(s - 1.0)
            up, down = (zeta._mean_and_slope(1.0 + math.exp(u + d))[0] for d in (h, -h))
            want = (math.log(up) - math.log(down)) / (2 * h)
            slope = zeta._mean_and_slope(s)[1]
            assert abs(slope / want - 1) <= 1e-6, s

    HEAD_EXPONENTS = (1.0 + 1e-6, 1.05, 2.0, 7.3, 20.0)

    def test_head_table_matches_per_array_expressions(self):
        # the weights exp(-s ln n) from one whole-array numpy exp, as before
        # the table was built in place
        for s in self.HEAD_EXPONENTS:
            model = ZetaModel(s)
            weights = np.exp(-s * zeta._HEAD_LN)
            assert np.array_equal(head_cum(s), np.concatenate([[0.0], np.cumsum(weights)]))
            pmf = np.array([model.pmf(n) for n in range(1, zeta.HEAD + 1)])
            assert np.array_equal(pmf, weights / model._norm)

    def test_tail_pmf_against_decimal(self):
        # the midpoint integral ((n - 1/2)**(1-s) - (n + 1/2)**(1-s)) / (s - 1)
        # over the model's normalizer, at 40 digits, out to the support's end
        for s in self.HEAD_EXPONENTS:
            model = ZetaModel(s)
            for n in (zeta.HEAD + 1, 10**6, 10**12, 2**48, 2**49, 2**50, 2**62):
                with localcontext() as ctx:
                    ctx.prec = 40
                    e, half = 1 - Decimal(s), Decimal("0.5")
                    want = ((n - half) ** e - (n + half) ** e) / -e / Decimal(model._norm)
                if want >= Decimal(2) ** -1022:
                    assert abs(Decimal(model.pmf(n)) / want - 1) <= Decimal("1e-12"), (s, n)

    def test_cdf_and_norm_match_whole_table(self):
        # the normalizer and every head cdf are the oracle table's, bit for
        # bit, and so are the tail cdfs past the head
        for s in self.HEAD_EXPONENTS:
            cum = head_cum(s)
            norm = zeta_norm(s, cum)
            model = ZetaModel(s)
            assert model._norm == norm
            head = [model.cdf_before(n) for n in range(1, zeta.HEAD + 2)]
            assert np.array_equal(np.array(head), cum / norm)
            for n in (zeta.HEAD + 2, 10**6, zeta.N_MAX, zeta.N_MAX + 1):
                assert model.cdf_before(n) == zeta_cdf_before(s, n, cum)

    def test_one_head_table_per_model(self, monkeypatch):
        # queries at and past the head's end, the inverse cdf and the pmf
        # all read the one table built on first use
        passes = []
        head_sums = zeta._head_sums
        monkeypatch.setattr(zeta, "_head_sums", lambda s: passes.append(s) or head_sums(s))
        model = ZetaModel(2.0)
        model.cdf_before(zeta.HEAD + 1)
        model.cdf_before(10**6)
        model.search_before(1.0)
        model.pmf(zeta.HEAD)
        assert passes == [2.0]

    def test_fit_hands_its_last_pass_to_the_model(self, monkeypatch):
        # the fit's exp pass gives the head's weights and running sums of
        # _head_sums, byte for byte, and a model returned from a Newton step
        # takes its table from that pass: its queries make no second pass
        spread = 1.0 + np.logspace(-6, math.log10(19.0), 400)
        for s in [zeta.MIN_EXPONENT, 2.0, 20.0, *map(float, spread)]:
            sums = zeta._running_sums(zeta._mean_and_slope(s)[2])
            assert sums.tobytes() == zeta._head_sums(s).tobytes() == head_cum(s).tobytes(), s
        at_min, at_max = zeta._fittable_range()
        targets = np.random.default_rng(28).uniform(at_max, at_min, 40)
        passes = []
        head_sums = zeta._head_sums
        monkeypatch.setattr(zeta, "_head_sums", lambda s: passes.append(s) or head_sums(s))
        for target in map(float, targets):
            model = fit_zeta([target])
            model.cdf_before(zeta.HEAD + 1)
            model.search_before(0.5)
            assert passes == [], target
            cdf, total, norm = ZetaModel(model.exponent)._head
            passes.clear()
            assert model._head[0].tobytes() == cdf.tobytes()
            assert model._head[1:] == (total, norm)

    def test_search_before_matches_whole_table(self):
        # at, and one ulp either side of, the cdf of indices around the
        # head's end, plus uniform targets and the top of the range
        uniforms = [float(u) for u in np.random.default_rng(12).random(1000)]
        for s in self.HEAD_EXPONENTS:
            cum = head_cum(s)
            cdf = cum / zeta_norm(s, cum)
            targets = uniforms + [1.0, math.nextafter(1.0, 0.0)]
            for n in (4096, 4097, 4098, zeta.HEAD, zeta.HEAD + 1, zeta.HEAD + 2):
                c = zeta_cdf_before(s, n, cum)
                targets += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
            model = ZetaModel(s)
            for t in targets:
                with watchdog(1.0):
                    n = model.search_before(t)
                if t < cdf[-1]:
                    assert n == int(np.searchsorted(cdf, t, side="right")), (s, t)
                assert zeta_cdf_before(s, n, cum) <= t, (s, t)
                assert n == zeta.N_MAX or zeta_cdf_before(s, n + 1, cum) > t, (s, t)

    @pytest.mark.parametrize(
        "exponent, target",
        [(2.0, 1.0 - 2.0**-37), (2.0, 1.0 - 2.0**-40), (7.3, 1.0), (20.0, 1.0)],
        ids=["2-at-1-2^-37", "2-at-1-2^-40", "7.3-at-1", "20-at-1"],
    )
    def test_search_before_is_bounded(self, exponent, target, monkeypatch):
        # targets whose answer lies far past the head, or at N_MAX
        model = ZetaModel(exponent)
        model.cdf_before(zeta.HEAD + 1)  # build the head table first
        calls = counting_cdf_before(monkeypatch)
        t0 = time.perf_counter()
        with watchdog(1.0):
            n = model.search_before(target)
        assert time.perf_counter() - t0 < 0.1
        assert calls[0] <= MAX_SEARCH_CALLS
        assert 1 <= n <= zeta.N_MAX and model.cdf_before(n) <= target
        assert n == zeta.N_MAX or model.cdf_before(n + 1) > target

    def test_search_quantized_is_bounded(self, monkeypatch):
        # the largest value ArithmeticDecoder.decode_target can return
        model = ZetaModel(2.0)
        model.cdf_before(zeta.HEAD + 1)
        calls = counting_cdf_before(monkeypatch)
        t0 = time.perf_counter()
        with watchdog(1.0):
            n = model.search_quantized(zeta.CUM_ONE - 1)
        assert time.perf_counter() - t0 < 0.1
        assert calls[0] <= MAX_SEARCH_CALLS
        assert model.quantized_cum(n) <= zeta.CUM_ONE - 1
        assert n == zeta.N_MAX or model.quantized_cum(n + 1) > zeta.CUM_ONE - 1

    def test_search_quantized_meets_its_definition(self):
        # at the ends of the value range, and at and just below the grid
        # value of indices around the head's end
        for s in self.HEAD_EXPONENTS:
            model = ZetaModel(s)
            values = [0, zeta.CUM_ONE - 1]
            for n in (2, 4097, 4098, zeta.HEAD, zeta.HEAD + 1, zeta.HEAD + 2):
                q = model.quantized_cum(n)
                values += [q, q - 1]
            for v in values:
                with watchdog(1.0):
                    n = model.search_quantized(v)
                assert 1 <= n <= zeta.N_MAX and model.quantized_cum(n) <= v, (s, v)
                assert n == zeta.N_MAX or model.quantized_cum(n + 1) > v, (s, v)

    @pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, exponent, monkeypatch):
        passes = []
        monkeypatch.setattr(zeta, "_head_sums", passes.append)
        with pytest.raises(ValueError, match="finite"):
            ZetaModel(exponent)
        assert passes == []

    def test_fitted_models_keep_small_tables(self, monkeypatch):
        from relcode.bench import vector

        models = []
        fit = vector.fit_zeta
        monkeypatch.setattr(vector, "fit_zeta", lambda x: models.append(fit(x)) or models[-1])
        vector.encode_vector(VECTOR_GRID, 0, repeats=10)
        assert len(models) == 50

        def ndarray_bytes(value):
            if isinstance(value, tuple):
                return sum(map(ndarray_bytes, value))
            return value.nbytes if isinstance(value, np.ndarray) else 0

        for model in models:
            assert sum(map(ndarray_bytes, vars(model).values())) <= 64 * 1024, model

    def test_mean_log2_matches_oracle(self):
        # the fit's mean is the oracle's float, bit for bit, and so are the
        # fittable range's ends
        exponents = 1.0 + np.logspace(-6, math.log10(19.0), 2000)
        for s in [zeta.MIN_EXPONENT, zeta.MAX_EXPONENT, *map(float, exponents)]:
            assert zeta._mean_and_slope(s)[0] == mean_log2(s), s
        ends = (mean_log2(zeta.MIN_EXPONENT), mean_log2(zeta.MAX_EXPONENT))
        assert zeta._fittable_range() == ends

    def test_vector_fits_make_few_exact_evaluations(self, monkeypatch):
        from relcode.bench.vector import encode_vector

        class CountingNumpy:
            # numpy for zeta.py, counting exp over the whole 4,096-term head
            head_exps = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                CountingNumpy.head_exps += np.size(x) == zeta.HEAD
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(zeta, "np", CountingNumpy())
        # the grid's means count too
        zeta._mean_grid.cache_clear()
        zeta._fittable_range.cache_clear()
        report = encode_vector(VECTOR_GRID, 0, calibration_runs=256)
        assert all(d.fitted_exponent is not None for d in report.dims)
        # per fitted model, at most 5 exact means and one head table
        assert CountingNumpy.head_exps <= 6 * len(report.dims) + zeta._GRID_POINTS

    def test_out_of_range(self):
        model = ZetaModel(2.0)
        for query, n in ((model.pmf, 0), (model.pmf, zeta.N_MAX + 1), (model.cdf_before, 0)):
            with pytest.raises(OutOfRange):
                query(n)

    def test_normalized_to_machine_precision(self):
        for lam in (1.05, 1.7, 4.0, 20.0):
            model = ZetaModel(lam)
            assert abs(model.cdf_before(zeta.N_MAX + 1) - 1.0) < 1e-12

    def test_fitted_model_beats_delta_on_low_divergence_indices(self):
        # amortized cost (-log2 pmf, what a joint arithmetic coder pays per
        # symbol) under the fitted model, against self-delimiting delta
        # codes, on real encoder indices in the many-small-dimensions regime
        pair = gaussian_pair_for_targets(0.2, 1.1)
        seeds = derive_seeds(77, 0, 20, 10_000)
        out = encode_batch(pair, SplitRule.DYADIC, seeds)
        idx = [int(i) for i in out.heap_indices]
        model = fit_zeta(np.log2(np.asarray(idx, dtype=float)))
        amortized = np.mean([-math.log2(model.pmf(n)) for n in idx])
        delta_mean = np.mean([len(elias_delta_encode(n)) for n in idx])
        assert amortized <= delta_mean


class TestPayloads:
    def test_global_payload(self):
        assert encode_payload(SplitRule.GLOBAL, 0, 1).to01() == "1"
        reader = BitReader(encode_payload(SplitRule.GLOBAL, 9, 512))
        assert decode_payload(reader, SplitRule.GLOBAL) == (9, 512)

    def test_dyadic_reference(self):
        # depth 3, index 13 (path 101): gamma(4) ++ 101
        payload = encode_payload(SplitRule.DYADIC, 3, 13)
        assert payload.to01() == "00100" + "101"
        assert len(payload) == 8
        assert decode_payload(BitReader(payload), SplitRule.DYADIC) == (3, 13)

    def test_zero_depth_is_one_bit(self):
        assert len(encode_payload(SplitRule.DYADIC, 0, 1)) == 1
        assert len(encode_payload(SplitRule.SAMPLE, 0, 1, seed=3)) == 1

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_payload(SplitRule.DYADIC, 2, 13)
        with pytest.raises(ValueError):
            encode_payload(SplitRule.GLOBAL, 2, 8)
        with pytest.raises(ValueError, match="shared seed"):
            encode_payload(SplitRule.SAMPLE, 3, 13)
        # a global index is 1 << depth: a right-branch bit would be dropped
        # from the payload and decode to another index
        for depth, index in ((2, 5), (2, 7), (40, (1 << 40) + 1)):
            with pytest.raises(ValueError, match="global"):
                encode_payload(SplitRule.GLOBAL, depth, index)
        with pytest.raises(ValueError, match="global"):
            serialize(replace(encode(PAIR, SplitRule.GLOBAL, 0), depth=2, heap_index=5))

    @pytest.mark.parametrize("rule", list(SplitRule))
    def test_round_trip_with_tail(self, rule):
        rng = np.random.default_rng(9)
        for seed in range(300):
            res = encode(PAIR, rule, seed)
            payload = encode_payload(rule, res.depth, res.heap_index, res.seed)
            tail = Bits([int(b) for b in rng.random(11) < 0.5])
            reader = BitReader(payload + tail)
            depth_, index_ = decode_payload(reader, rule, seed=seed)
            assert (depth_, index_) == (res.depth, res.heap_index)
            assert reader.pos == len(payload)

    def test_sample_payload_len_tracks_path_cost(self):
        # arithmetic-coded bound sequence: within 2+1 bits of -log2 P(S_D)
        seeds = derive_seeds(21, 2, 0, 300)
        for s in seeds[:300]:
            res = encode(PAIR, SplitRule.SAMPLE, int(s))
            payload = encode_payload(SplitRule.SAMPLE, res.depth, res.heap_index, int(s))
            ac_bits = len(payload) - len(elias_gamma_encode(res.depth + 1))
            ideal = -math.log2(res.proposal_mass)
            if res.depth:
                assert ac_bits <= ideal + 3.0


class TestContainer:
    @pytest.mark.parametrize("rule", list(SplitRule))
    def test_serialize_deserialize(self, rule):
        for seed in range(100):
            res = encode(PAIR, rule, seed)
            blob = serialize(res)
            rule2, depth2, index2, end = deserialize(blob, seed=seed)
            assert (rule2, depth2, index2) == (res.rule, res.depth, res.heap_index)
            assert end == len(blob)
            assert decode(PAIR.proposal, rule2, seed, index2) == res.sample

    @pytest.mark.parametrize("rule", list(SplitRule))
    def test_result_built_as_the_benchmark_does(self, rule):
        # perfbench/workloads.py builds a RecResult from a batch run and
        # still passes bound_trace=(), which is accepted and ignored
        seed = 7
        out = encode_batch(PAIR, rule, [seed])
        res = RecResult(
            sample=float(out.samples[0]), heap_index=out.heap_indices[0],
            depth=int(out.depths[0]), accepted=True, rule=rule, seed=seed,
            proposal_mass=float(out.proposal_mass[0]), bound_trace=())
        assert serialize(res).to_bytes() == serialize(encode(PAIR, rule, seed)).to_bytes()
        assert "bound_trace" not in [f.name for f in fields(RecResult)]

    def test_bad_magic(self):
        res = encode(PAIR, SplitRule.DYADIC, 5)
        blob = serialize(res)
        text = blob.to01()
        corrupted = Bits([1 - int(text[0])]) + Bits(text[1:])
        with pytest.raises(DecodeError):
            deserialize(corrupted, seed=5)

    def test_deep_global_container_decodes_fast(self):
        # 47 bits that declare depth 2**20 - 1
        blob = Bits("101000") + elias_gamma_encode(2**20)
        t0 = time.perf_counter()
        rule, depth, index, end = deserialize(blob, seed=0)
        sample = decode(PAIR.proposal, rule, 0, index)
        assert time.perf_counter() - t0 < 2.0
        assert (rule, depth, index, end) == (SplitRule.GLOBAL, 2**20 - 1, 1 << (2**20 - 1), 47)
        assert math.isfinite(sample)

    def test_sample_path_past_offset_ceiling_is_decode_error(self):
        blob = Bits("101001") + elias_gamma_encode(256) + Bits([1] * 400)
        with pytest.raises(DecodeError):
            deserialize(blob, seed=0)

    def test_sample_depth_past_the_stream_fails_fast(self):
        # declares 2**14 - 1 path bits with none behind them
        blob = Bits("101001") + elias_gamma_encode(2**14)
        t0 = time.perf_counter()
        with pytest.raises(DecodeError):
            deserialize(blob, seed=0)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize(
        "declared",
        [GLOBAL_STEP_CAP + 2, 2**27, 2**64, 2**4000],
        ids=["cap+1", "2^27", "2^64", "2^4000"],
    )
    def test_global_depth_past_encoder_cap_is_decode_error(self, declared):
        blob = Bits("101000") + elias_gamma_encode(declared)
        t0 = time.perf_counter()
        with pytest.raises(DecodeError):
            deserialize(blob, seed=0)
        assert time.perf_counter() - t0 < 0.1

    @settings(max_examples=10_000, deadline=timedelta(milliseconds=200))
    @given(
        data=st.binary(max_size=64),
        magic=st.booleans(),
        drop=st.integers(0, 7),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_decoder_is_total_on_arbitrary_bytes(self, data, magic, drop, seed):
        # half the inputs carry the magic nibble, so the payload parsers run
        if magic and data:
            data = bytes([0xA0 | data[0] & 0x0F]) + data[1:]
        bits = Bits.from_bytes(data, max(0, 8 * len(data) - drop))
        with watchdog(1.0):
            try:
                rule, _, index, _ = deserialize(bits, seed=seed)
                decode(PAIR.proposal, rule, seed, index)
            except (DecodeError, InvalidIndex):
                pass
            # the same bits as a joint index stream
            try:
                decode_joint(bits, JOINT_MODELS)
            except DecodeError:
                pass

    def test_bytes_round_trip_with_padding(self):
        res = encode(PAIR, SplitRule.DYADIC, 11)
        blob = serialize(res)
        packed = blob.to_bytes()
        recovered = Bits.from_bytes(packed)  # includes zero padding
        rule2, depth2, index2, _ = deserialize(recovered, seed=11)
        assert (rule2, depth2, index2) == (res.rule, res.depth, res.heap_index)
