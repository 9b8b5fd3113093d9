import math
import time
from datetime import timedelta

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
    Unfittable,
    ZetaModel,
    deserialize,
    elias_delta_decode,
    elias_delta_encode,
    elias_gamma_decode,
    elias_gamma_encode,
    encode_payload,
    decode_payload,
    fit_zeta,
    quantize_p0,
    serialize,
    zeta_decode,
    zeta_encode,
)
from relcode.codecs import zeta
from relcode.distributions import gaussian_pair_for_targets
from relcode.engine import GLOBAL_STEP_CAP, InvalidIndex, SplitRule, decode, encode, encode_batch
from relcode.randomness import derive_seeds

from oracles import zeta_entropy_bits, zeta_mean_log2

PAIR = gaussian_pair_for_targets(3.0, 5.0)


class TestBits:
    def test_round_trip_01(self):
        b = Bits.from01("0110100")
        assert b.to01() == "0110100"
        assert len(b) == 7
        assert list(b) == [0, 1, 1, 0, 1, 0, 0]

    def test_concat_associative(self):
        a, b, c = Bits.from01("01"), Bits.from01("1"), Bits.from01("001")
        assert (a + b) + c == a + (b + c)

    def test_bytes_round_trip(self):
        b = Bits.from01("101100111000101")
        packed = b.to_bytes()
        assert len(packed) == 2
        assert Bits.from_bytes(packed, nbits=len(b)) == b

    def test_reader_exhaustion(self):
        r = BitReader(Bits.from01("1"))
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
        assert len(b) == n and list(b) == lst and b.to01() == text
        assert Bits.from01(text) == b
        assert [b[i] for i in range(-n, n)] == lst + lst
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                b[i]
        lo = data.draw(st.integers(-n - 2, n + 2))
        hi = data.draw(st.integers(-n - 2, n + 2))
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        assert list(b[lo:hi:step]) == lst[lo:hi:step]
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
            elias_gamma_decode(BitReader(Bits.from01("001")))

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
            assert dec.bits_consumed() == len(code)
            reader.advance(dec.bits_consumed())
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
        assert zeta_mean_log2(model) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_point_mass(self):
        model = fit_zeta([0.0] * 8)
        assert model.exponent == 20.0
        assert len(zeta_encode(1, model)) <= 2

    def test_unfittable(self):
        with pytest.raises(Unfittable):
            fit_zeta([55.0] * 3)

    @pytest.mark.parametrize("target", [1e-6, 0.05, 0.5, 1.0, 3.0, 9.5, 25.0])
    def test_bisection_stops_at_its_fixed_point(self, target, monkeypatch):
        # reference: all 80 bisection steps
        lo, hi = zeta.MIN_EXPONENT, zeta.MAX_EXPONENT
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if zeta._mean_log2(mid) > target:
                lo = mid
            else:
                hi = mid
        mean_log2 = zeta._mean_log2
        calls = []
        monkeypatch.setattr(zeta, "_mean_log2", lambda *a: calls.append(a) or mean_log2(*a))
        assert fit_zeta([target]).exponent == 0.5 * (lo + hi)
        # two range checks, then one call per step until mid hits a bound
        assert len(calls) <= 2 + 60

    @staticmethod
    def _exact_fit(target):
        # reference: fit_zeta's bisection with every step evaluated exactly
        lo, hi = zeta.MIN_EXPONENT, zeta.MAX_EXPONENT
        mids = []
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            mids.append(mid)
            if zeta._mean_log2(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), mids

    def _assert_fits_match_exact_loop(self, targets):
        for target in targets:
            expected, _ = self._exact_fit(target)
            assert fit_zeta([target]).exponent.hex() == expected.hex(), target

    def test_fit_matches_exact_bisection_on_random_targets(self):
        top, bottom = zeta._fittable_range()
        rng = np.random.default_rng(9)
        uniform = rng.uniform(bottom, top, 250)
        log_uniform = np.exp(rng.uniform(math.log(bottom), math.log(top), 250))
        targets = [float(t) for t in np.concatenate([uniform, log_uniform])]
        self._assert_fits_match_exact_loop([t for t in targets if bottom < t < top])

    def test_fit_matches_exact_bisection_at_visited_midpoints(self):
        # targets equal to f(mid) for mids the exact loop visits, and 1 ulp
        # either side: the comparisons with the smallest possible margins
        targets = []
        for base in (0.3, 4.0):
            _, mids = self._exact_fit(base)
            for mid in mids[::4] + mids[-8:]:
                f = zeta._mean_log2(mid)
                targets += [math.nextafter(f, 0.0), f, math.nextafter(f, math.inf)]
        self._assert_fits_match_exact_loop(targets)

    def test_fit_matches_exact_bisection_at_range_ends(self):
        top, bottom = zeta._fittable_range()
        below_top = [math.nextafter(top, 0.0), math.nextafter(math.nextafter(top, 0.0), 0.0)]
        below_top += [top * (1.0 - 10.0**-k) for k in range(3, 16)]
        above_bottom = [math.nextafter(bottom, math.inf)]
        above_bottom += [bottom * (1.0 + 10.0**-k) for k in range(1, 16)]
        self._assert_fits_match_exact_loop(below_top + above_bottom)

    def test_mean_log2_bounds_contain_exact_value(self):
        # the allowance assumes log and exp within 8 ulp; both measure under 1
        u = 2.0**-53
        ln_ref = np.array([math.log(n) for n in range(2, zeta.HEAD + 1)])
        assert zeta._HEAD_LN[0] == 0.0
        assert np.all(np.abs(zeta._HEAD_LN[1:] / ln_ref - 1.0) <= 8 * u)
        for s in (zeta.MIN_EXPONENT, 2.5, zeta.MAX_EXPONENT):
            arg = -s * zeta._HEAD_LN[::97]
            exp_ref = np.array([math.exp(a) for a in arg])
            assert np.all(np.abs(np.exp(arg) / exp_ref - 1.0) <= 8 * u)
        exponents = 1.0 + np.logspace(-6, math.log10(19.0), 2000)
        for s in [zeta.MIN_EXPONENT, zeta.MAX_EXPONENT, *map(float, exponents)]:
            lo, hi = zeta._mean_log2_bounds(s)
            assert lo <= zeta._mean_log2(s) <= hi, s
            assert hi - lo < 1e-10 * hi

    def test_vector_fits_make_few_exact_evaluations(self, monkeypatch):
        from relcode.bench.vector import encode_vector

        # the bench vector defaults: 50 dimensions, KL 0.05 to 0.5 bits
        pairs = [
            gaussian_pair_for_targets(kl, kl + 0.75)
            for kl in (0.05 + 0.45 * d / 49 for d in range(50))
        ]
        mean_log2 = zeta._mean_log2
        calls = []
        monkeypatch.setattr(zeta, "_mean_log2", lambda *a: calls.append(a) or mean_log2(*a))
        zeta._fittable_range.cache_clear()
        report = encode_vector(pairs, 0, calibration_runs=256)
        assert all(d.fitted_exponent is not None for d in report.dims)
        assert len(calls) <= 1400

    def test_out_of_range(self):
        model = ZetaModel(2.0)
        with pytest.raises(OutOfRange):
            zeta_encode(zeta.N_MAX + 1, model)

    def test_codeword_length_bound(self):
        model = ZetaModel(2.0)
        assert len(zeta_encode(1, model)) <= -math.log2(model.pmf(1)) + 2

    def test_normalized_to_machine_precision(self):
        for lam in (1.05, 1.7, 4.0, 20.0):
            model = ZetaModel(lam)
            assert abs(model.cdf_before(zeta.N_MAX + 1) - 1.0) < 1e-12

    def test_round_trip_fitted_models(self):
        rng = np.random.default_rng(4)
        fits = [
            fit_zeta(rng.uniform(0.0, 2.0, 200)),
            fit_zeta(rng.uniform(0.5, 4.0, 200)),
            fit_zeta(rng.uniform(2.0, 8.0, 200)),
        ]
        for model in fits:
            for n in list(range(1, 200)) + [10**3, 10**4]:
                reader = BitReader(zeta_encode(n, model))
                assert zeta_decode(reader, model) == n
                assert reader.remaining == 0

    def test_prefix_free_stream(self):
        model = fit_zeta(np.random.default_rng(5).uniform(0.0, 3.0, 100))
        uniforms = np.random.default_rng(6).random(100)
        values = [model.search_before(u) for u in uniforms]
        stream = Bits()
        for v in values:
            stream = stream + zeta_encode(v, model)
        reader = BitReader(stream)
        assert [zeta_decode(reader, model) for _ in values] == values
        assert reader.remaining == 0

    def test_expected_length_within_two_bits_of_entropy(self):
        model = fit_zeta(np.random.default_rng(7).uniform(0.2, 2.5, 500))
        uniforms = np.random.default_rng(8).random(100_000)
        draws = [model.search_before(u) for u in uniforms]
        lengths = np.fromiter(
            (len(zeta_encode(int(n), model)) for n in draws), dtype=float
        )
        assert lengths.mean() <= zeta_entropy_bits(model) + 2.0

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

    def test_bad_magic(self):
        res = encode(PAIR, SplitRule.DYADIC, 5)
        blob = serialize(res)
        corrupted = Bits([1 - blob[0]]) + blob[1:]
        with pytest.raises(DecodeError):
            deserialize(corrupted, seed=5)

    def test_deep_global_container_decodes_fast(self):
        # 47 bits that declare depth 2**20 - 1
        blob = Bits.from01("101000") + elias_gamma_encode(2**20)
        t0 = time.perf_counter()
        rule, depth, index, end = deserialize(blob, seed=0)
        sample = decode(PAIR.proposal, rule, 0, index)
        assert time.perf_counter() - t0 < 2.0
        assert (rule, depth, index, end) == (SplitRule.GLOBAL, 2**20 - 1, 1 << (2**20 - 1), 47)
        assert math.isfinite(sample)

    def test_sample_path_past_offset_ceiling_is_decode_error(self):
        blob = Bits.from01("101001") + elias_gamma_encode(256) + Bits([1] * 400)
        with pytest.raises(DecodeError):
            deserialize(blob, seed=0)

    def test_sample_depth_past_the_stream_fails_fast(self):
        # declares 2**14 - 1 path bits with none behind them
        blob = Bits.from01("101001") + elias_gamma_encode(2**14)
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
        blob = Bits.from01("101000") + elias_gamma_encode(declared)
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
        try:
            bits = Bits.from_bytes(data, max(0, 8 * len(data) - drop))
            rule, _, index, _ = deserialize(bits, seed=seed)
            decode(PAIR.proposal, rule, seed, index)
        except (DecodeError, InvalidIndex):
            pass

    def test_bytes_round_trip_with_padding(self):
        res = encode(PAIR, SplitRule.DYADIC, 11)
        blob = serialize(res)
        packed = blob.to_bytes()
        recovered = Bits.from_bytes(packed)  # includes zero padding
        rule2, depth2, index2, _ = deserialize(recovered, seed=11)
        assert (rule2, depth2, index2) == (res.rule, res.depth, res.heap_index)
