import numpy as np
import pytest
from scipy import stats

from relcode import randomness
from relcode.randomness import (
    derive_seeds,
    node_randoms,
    node_uniforms,
    philox4x64_10,
    seed_words,
)

U64_MAX = 2**64 - 1
LANES = randomness._INT_LANES
CHUNK = randomness._CHUNK_LANES


def reference_block(counter, key):
    """One Philox4x64-10 block from numpy's bit generator.

    It increments its 256-bit counter (with carry) before the first block,
    so it starts one below the wanted counter.
    """
    c = sum(int(w) << (64 * i) for i, w in enumerate(counter))
    c = (c - 1) % 2**256
    before = np.array([(c >> (64 * i)) & U64_MAX for i in range(4)], np.uint64)
    gen = np.random.Philox(counter=before, key=np.array([int(k) for k in key], np.uint64))
    return [int(w) for w in gen.random_raw(4)]


class TestPhiloxReference:
    def test_matches_numpy_bit_generator(self):
        # numpy's Philox increments the counter's first word before
        # producing its first block; account for that and compare raw words
        rng = np.random.default_rng(7)
        for _ in range(100):
            key = rng.integers(0, 2**64, 2, dtype=np.uint64)
            ctr = rng.integers(0, 2**64, 4, dtype=np.uint64)
            ref = np.random.Philox(counter=ctr, key=key).random_raw(4)
            with np.errstate(over="ignore"):
                mine = philox4x64_10(
                    ctr[0] + np.uint64(1), ctr[1], ctr[2], ctr[3], key[0], key[1]
                )
            assert [int(w) for w in mine] == [int(w) for w in ref]

    def test_vectorized_matches_scalar(self):
        c0 = np.arange(100, dtype=np.uint64)
        out_vec = philox4x64_10(
            c0, np.uint64(1), np.uint64(2), np.uint64(3), np.uint64(4), np.uint64(5)
        )
        for i in range(100):
            out_one = philox4x64_10(
                np.uint64(i), np.uint64(1), np.uint64(2), np.uint64(3),
                np.uint64(4), np.uint64(5),
            )
            assert all(int(a[i]) == int(b) for a, b in zip(out_vec, out_one))


class TestPhiloxPaths:
    """The integer rounds and the numpy rounds compute one stream."""

    @pytest.mark.parametrize("word", [0, 1, U64_MAX])
    @pytest.mark.parametrize("position", range(6))
    def test_extreme_words(self, word, position):
        rng = np.random.default_rng(position)
        words = [int(w) for w in rng.integers(0, 2**64, 6, dtype=np.uint64)]
        words[position] = word
        ref = reference_block(words[:4], words[4:])
        assert list(randomness._rounds_int(*words)) == ref
        numpy_words = randomness._rounds_numpy(*map(np.uint64, words))
        assert [int(w) for w in numpy_words] == ref
        assert [int(w) for w in philox4x64_10(*map(np.uint64, words))] == ref

    @pytest.mark.parametrize("n", [0, 1, LANES - 1, LANES, LANES + 1])
    def test_lane_counts(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        c0, c2 = rng.integers(0, 2**64, (2, n), dtype=np.uint64)
        c0[: min(n, 2)] = [0, U64_MAX][: min(n, 2)]  # extreme words in the first lanes
        args = (c0, np.uint64(5), c2, np.uint64(U64_MAX), np.uint64(0), np.uint64(2**63))
        rounds_numpy = randomness._rounds_numpy
        numpy_calls = []

        def spy(*a):
            numpy_calls.append(1)
            return rounds_numpy(*a)

        monkeypatch.setattr(randomness, "_rounds_numpy", spy)
        out = philox4x64_10(*args)
        assert len(numpy_calls) == (n > LANES)
        want = rounds_numpy(*args)
        for got, w in zip(out, want):
            assert got.dtype == np.uint64 and got.shape == (n,)
            assert np.array_equal(got, w)
        for i in range(n):
            ref = reference_block([c0[i], 5, c2[i], U64_MAX], [0, 2**63])
            assert [int(w[i]) for w in out] == ref

    @pytest.mark.parametrize("alive", [1, LANES // 16, LANES // 16 + 1])
    def test_global_window_broadcast(self, alive, monkeypatch):
        # the (alive, 16) first window of ``_run_global``: seeds down, depths across
        seeds = np.array([U64_MAX, 0] + list(range(7, 7 + alive)), np.uint64)[:alive, None]
        depths = np.arange(100, 116, dtype=np.uint64)[None, :]
        zero = np.uint64(0)
        got = node_uniforms(seeds, depths, zero, zero, zero)
        monkeypatch.setattr(randomness, "_INT_LANES", -1)
        want = node_uniforms(seeds, depths, zero, zero, zero)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == (alive, 16)
            assert np.array_equal(g, w)
        for i in range(alive):
            for j in range(16):
                nr = node_randoms(int(seeds[i, 0]), 1 << (100 + j))
                assert (got[0][i, j], got[1][i, j], got[2][i, j]) == (
                    nr.u_sample, nr.u_accept, nr.u_branch,
                )

    @staticmethod
    def _check_chunked(args, shape, monkeypatch):
        """``philox4x64_10`` on ``args`` against one unchunked numpy call and,
        on sampled lanes (block edges among them), against numpy's Philox."""
        rounds_numpy = randomness._rounds_numpy
        block_lanes = []

        def spy(*a):
            block_lanes.append(np.broadcast(*a).size)
            return rounds_numpy(*a)

        monkeypatch.setattr(randomness, "_rounds_numpy", spy)
        out = philox4x64_10(*args)
        n = int(np.prod(shape))
        assert (len(block_lanes) > 1) == (n >= 2 * CHUNK)
        assert sum(block_lanes) == n and max(block_lanes) < 2 * CHUNK
        want = rounds_numpy(*args)
        for got, w in zip(out, want):
            assert got.dtype == w.dtype == np.uint64 and got.shape == w.shape == shape
            assert np.array_equal(got, w)
        flat = [np.broadcast_to(a, shape).reshape(-1) for a in args]
        edges = np.cumsum(block_lanes)[:-1].tolist()
        lanes = {0, n - 1, *edges, *(e - 1 for e in edges)}
        lanes |= set(np.random.default_rng(n).integers(0, n, 8).tolist())
        for i in sorted(lanes):
            ref = reference_block([w[i] for w in flat[:4]], [w[i] for w in flat[4:]])
            assert [int(w.reshape(-1)[i]) for w in out] == ref

    @pytest.mark.parametrize(
        "n", [2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK + 1234]
    )
    def test_chunk_edges(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        c0, c2 = rng.integers(0, 2**64, (2, n), dtype=np.uint64)
        c0[:2] = [0, U64_MAX]
        args = (c0, np.uint64(5), c2, np.uint64(U64_MAX), np.uint64(0), np.uint64(2**63))
        self._check_chunked(args, (n,), monkeypatch)

    @pytest.mark.parametrize("alive, w", [(5, 4000), (3, 2 * CHUNK + 77)])
    def test_chunked_global_window_broadcast(self, alive, w, monkeypatch):
        # an (alive, w) window of ``_run_global`` of two blocks or more, as
        # groups of rows (4000 columns) or as blocks within each row
        seeds = np.array([U64_MAX, 0, 7, 8, 9][:alive], np.uint64)[:, None]
        depths = np.arange(100, 100 + w, dtype=np.uint64)[None, :]
        zero = np.uint64(0)
        args = (depths, zero, zero, zero, seeds, randomness._DOMAIN_NODE)
        self._check_chunked(args, (alive, w), monkeypatch)

    @pytest.mark.parametrize(
        "shape", [(2 * CHUNK - 1,), (2 * CHUNK,), (3 * CHUNK + 1234,),
                  (5, 4000), (3, 2 * CHUNK + 77), (40, 2 * CHUNK // 40 + 3)],
    )
    def test_chunks_never_widen_a_word(self, shape, monkeypatch):
        # a 1-D batch call as ``_draw`` makes it below depth 64 (one depth,
        # zero k_mid and k_hi) and a 2-D global window (seeds down, depths
        # across): each block gets every word at no more than its own size,
        # and the words are those of the rounds over fully broadcast words
        rng = np.random.default_rng(shape[-1])
        zero = np.uint64(0)
        if len(shape) == 1:
            seeds, k_lo = rng.integers(0, 2**64, (2, shape[0]), dtype=np.uint64)
            seeds[:2] = k_lo[:2] = [0, U64_MAX]
            args = (np.uint64(37), k_lo, zero, zero, seeds, randomness._DOMAIN_NODE)
        else:
            seeds = rng.integers(0, 2**64, (shape[0], 1), dtype=np.uint64)
            depths = np.arange(100, 100 + shape[1], dtype=np.uint64)[None, :]
            args = (depths, zero, zero, zero, seeds, randomness._DOMAIN_NODE)
        rounds_numpy = randomness._rounds_numpy
        sizes = []

        def spy(*a):
            sizes.append([np.size(w) for w in a])
            return rounds_numpy(*a)

        monkeypatch.setattr(randomness, "_rounds_numpy", spy)
        out = philox4x64_10(*args)
        assert (len(sizes) > 1) == (np.prod(shape) >= 2 * CHUNK)
        for block in sizes:
            assert all(got <= np.size(word) for got, word in zip(block, args)), block
        want = rounds_numpy(*np.broadcast_arrays(*args))
        for got, w in zip(out, want):
            assert got.shape == shape and got.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "args",
        [
            (3, 1, 2, 3, 4, 5),
            (np.uint64(3), np.array(1, np.uint64), 2, 3, 4, 5),
            (np.arange(3, dtype=np.uint64), 1, 2, 3, 4, 5),
            (np.arange(2, dtype=np.uint64)[:, None], np.arange(5, dtype=np.uint64), 2, 3, 4, 5),
            (np.zeros((0, 4), np.uint64), 1, 2, 3, 4, 5),
        ],
        ids=["scalars", "zero_dim", "one_dim", "two_dim", "empty"],
    )
    def test_output_types_match(self, args, monkeypatch):
        args = tuple(a if isinstance(a, np.ndarray) else np.uint64(a) for a in args)

        def run(int_lanes):
            monkeypatch.setattr(randomness, "_INT_LANES", int_lanes)
            return philox4x64_10(*args), node_uniforms(*args[:5])

        int_words, int_units = run(10**9)
        numpy_words, numpy_units = run(-1)
        for a, b in zip([*int_words, *int_units], [*numpy_words, *numpy_units]):
            assert type(a) is type(b)
            assert a.dtype == b.dtype and np.shape(a) == np.shape(b)
            assert np.array_equal(a, b)


class TestOneLaneExit:
    """One lane runs ``_rounds_int`` once, whatever the shapes of its words."""

    @pytest.mark.parametrize("word", [0, U64_MAX])
    @pytest.mark.parametrize("position", [None, *range(6)])
    def test_words_match_rounds_int(self, word, position, monkeypatch):
        # every word at ``word``, or one word at it among random ones
        rng = np.random.default_rng(11 if position is None else position)
        words = [int(w) for w in rng.integers(0, 2**64, 6, dtype=np.uint64)]
        for i in range(6) if position is None else [position]:
            words[i] = word
        monkeypatch.setattr(randomness, "_rounds_numpy", None)  # never reached
        got = philox4x64_10(*map(np.uint64, words))
        assert all(type(w) is np.uint64 for w in got)
        assert [int(w) for w in got] == list(randomness._rounds_int(*words))

    @pytest.mark.parametrize(
        "shapes, shape",
        [
            ([(1,), (), (), (), (), ()], (1,)),
            ([(), (), (), (), (1,), ()], (1,)),
            ([(1, 1), (), (), (), (), ()], (1, 1)),
            ([(1, 1), (1,), (1,), (1,), (1,), ()], (1, 1)),
        ],
    )
    def test_shapes_kept(self, shapes, shape):
        args = [np.full(s, U64_MAX - i, np.uint64) for i, s in enumerate(shapes)]
        got = philox4x64_10(*args)
        want = randomness._rounds_numpy(*args)
        for g, w in zip(got, want):
            assert type(g) is np.ndarray and g.dtype == np.uint64 and g.shape == shape
            assert g.tobytes() == np.broadcast_to(w, shape).tobytes()
        units = node_uniforms(*args[:5])
        assert all(u.dtype == np.float64 and u.shape == shape for u in units)

    @pytest.mark.parametrize("n", [40, 20_000])
    def test_node_uniforms_lane_of_wide_call(self, n):
        # 40 lanes run the numpy rounds in one block, 20,000 in chunks
        rng = np.random.default_rng(n)
        seeds, off_lo, off_mid, off_hi = rng.integers(0, 2**64, (4, n), dtype=np.uint64)
        seeds[:2] = off_lo[:2] = [0, U64_MAX]
        depth = np.uint64(130)
        wide = node_uniforms(seeds, depth, off_lo, off_mid, off_hi)
        for i in [0, 1, n // 2, n - 1]:
            seed, lo, mid, hi = (a[i:i + 1] for a in (seeds, off_lo, off_mid, off_hi))
            one = node_uniforms(seed, depth, lo, mid, hi)
            assert [u.tobytes() for u in one] == [u[i:i + 1].tobytes() for u in wide]

    @pytest.mark.parametrize("depth", [0, 63, 64, 65, 191])
    def test_one_lane_node_uniforms_is_node_randoms(self, depth, monkeypatch):
        # an offset with its top bits set (all of them, or the top one over
        # random low bits), as a (1,)-shaped lane, as 0-d words and as one
        # lane of a wide call; the one-lane exit uses neither the words'
        # numpy path nor its float map
        rng = np.random.default_rng(depth)
        n = 40
        seeds = rng.integers(0, 2**64, n, dtype=np.uint64)
        seeds[1] = U64_MAX
        low = int(rng.integers(0, 2**63, dtype=np.uint64)) << 128 | 12345
        offsets = [(1 << depth) - 1, low % (1 << depth) | (1 << depth) >> 1]
        offsets += [int(k) % (1 << depth) for k in rng.integers(0, 2**63, n - 2, dtype=np.uint64)]
        words = np.array([[k & U64_MAX, k >> 64 & U64_MAX, k >> 128] for k in offsets], np.uint64).T
        wide = node_uniforms(seeds, np.uint64(depth), *words)
        monkeypatch.setattr(randomness, "philox4x64_10", None)
        monkeypatch.setattr(randomness, "_to_unit", None)
        for i in (0, 1, n - 1):
            nr = node_randoms(int(seeds[i]), (1 << depth) + offsets[i])
            want = [nr.u_sample, nr.u_accept, nr.u_branch]
            lane = node_uniforms(seeds[i:i + 1], depth, *words[:, i:i + 1])
            assert [u.shape for u in lane] == [(1,)] * 3
            assert [u.tobytes() for u in lane] == [u[i:i + 1].tobytes() for u in wide]
            assert [float(u[0]) for u in lane] == want
            scalar = node_uniforms(seeds[i], np.uint64(depth), *words[:, i])
            assert all(type(u) is np.float64 for u in scalar) and list(scalar) == want


class TestNodeRandoms:
    def test_deterministic(self):
        a = node_randoms(123, 456)
        b = node_randoms(123, 456)
        assert (a.u_sample, a.u_accept, a.u_branch) == (
            b.u_sample, b.u_accept, b.u_branch,
        )

    def test_distinct_across_nodes_and_seeds(self):
        seen = set()
        for seed in (0, 1, 2):
            for idx in range(1, 2000):
                u = node_randoms(seed, idx)
                seen.add((u.u_sample, u.u_accept, u.u_branch))
        assert len(seen) == 3 * 1999

    def test_lanes_differ(self):
        u = node_randoms(9, 17)
        assert u.u_sample != u.u_accept != u.u_branch

    def test_range(self):
        for idx in (1, 2, 3, 1000, 1 << 80):
            u = node_randoms(5, idx)
            for v in (u.u_sample, u.u_accept, u.u_branch):
                assert 0.0 <= v < 1.0

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            node_randoms(0, 0)

    @pytest.mark.parametrize("k", [0, 1, U64_MAX, (1 << 192) - 1])
    def test_offset_past_ceiling(self, k):
        # the integer rounds never see a word of 2**64 or more
        for depth in (193, 300):
            with pytest.raises(ValueError):
                node_randoms(3, (1 << depth) | (1 << 192 | k))
        with pytest.raises(ValueError):
            node_randoms(-1, 1 << 192 | k)
        with pytest.raises(ValueError):
            node_randoms(2**64, 1 << 192 | k)

    def test_uniformity_ks(self):
        # one million sample-lane values across nodes at various depths
        n = 1_000_000
        depths = np.full(n, 20, dtype=np.uint64)
        offs = np.arange(n, dtype=np.uint64)
        zero = np.uint64(0)
        u, _, _ = node_uniforms(np.uint64(42), depths, offs, zero, zero)
        res = stats.kstest(u, "uniform")
        # critical value at significance 1e-3
        assert res.statistic < 1.9495 / np.sqrt(n)

    def test_collisions_over_a_million_nodes(self):
        n = 1_000_000
        u, _, _ = node_uniforms(
            np.uint64(7),
            np.full(n, 21, dtype=np.uint64),
            np.arange(n, dtype=np.uint64),
            np.uint64(0),
            np.uint64(0),
        )
        assert np.unique(u).size == n

    def test_matches_batch_splitting(self):
        # scalar API decomposes the heap index the same way the engine does
        for idx in (1, 5, 77, (1 << 64) + 3, (1 << 130) + 12345, (1 << 193) - 1):
            d = idx.bit_length() - 1
            k = idx - (1 << d)
            m = (1 << 64) - 1
            u0, u1, u2 = node_uniforms(
                np.uint64(11), np.uint64(d),
                np.uint64(k & m), np.uint64((k >> 64) & m), np.uint64(k >> 128),
            )
            nr = node_randoms(11, idx)
            assert (float(u0), float(u1), float(u2)) == (
                nr.u_sample, nr.u_accept, nr.u_branch,
            )


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_seeds(1, 2, 3, 1000)
        b = derive_seeds(1, 2, 3, 1000)
        assert np.array_equal(a, b)
        assert np.unique(a).size == 1000
        c = derive_seeds(1, 2, 4, 1000)
        assert not np.array_equal(a, c)

    def test_block_array_gives_one_row_per_block(self):
        blocks = np.array([0, 1, 7, 2**40, 2**64 - 1], np.uint64)
        for n in (0, 1, 5, 40):
            rows = derive_seeds(9, 4, blocks, n)
            assert rows.shape == (5, n)
            for b, row in zip(blocks, rows):
                assert np.array_equal(row, derive_seeds(9, 4, int(b), n))
        as_list = derive_seeds(9, 4, [3, 5], 2)
        assert np.array_equal(as_list, derive_seeds(9, 4, np.array([3, 5]), 2))

    @pytest.mark.parametrize("tag, block", [
        (-1, 0), (2**64, 0), (2**64 + 5, 0), (0, -1), (0, 2**64),
        (0, [0, 2**64]), (0, [3, -1]), (0, np.array([0, -2], np.int64)),
    ])
    def test_out_of_range_tag_or_block_raises(self, tag, block):
        with pytest.raises(ValueError):
            derive_seeds(0, tag, block, 3)

    def test_non_integer_word_names_its_type(self):
        for args in [(0, 1, 2.5, 3), (0, 1.5, 2, 3), (0.5, 1, 2, 3), (0, 1, np.float64(2), 3)]:
            with pytest.raises(TypeError, match="object cannot be interpreted as an integer"):
                derive_seeds(*args)

    def test_zero_d_integer_array_is_one_word(self):
        assert seed_words(np.array(5)) == np.uint64(5) and seed_words(np.array(5)).ndim == 0
        assert np.array_equal(derive_seeds(0, 1, np.array(5), 3), derive_seeds(0, 1, 5, 3))
        assert np.array_equal(derive_seeds(np.array(4), 1, 5, 3), derive_seeds(4, 1, 5, 3))

    def test_range_ends_of_tag_and_block(self):
        top = 2**64 - 1
        assert derive_seeds(0, top, top, 3).shape == (3,)
        assert not np.array_equal(derive_seeds(0, top, 0, 3), derive_seeds(0, 5, 0, 3))

    def test_independent_of_node_stream(self):
        # same words fed to both primitives give unrelated values
        s = int(derive_seeds(3, 1, 0, 1)[0])
        u = node_randoms(3, 1)
        assert s / 2.0**64 != u.u_sample
