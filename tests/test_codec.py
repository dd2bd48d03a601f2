import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcodes import codec
from cpcodes.codec import (
    VARIANT_I,
    VARIANT_II,
    ConcentricCode,
    EncodedIndex,
    InitialCodeword,
    StreamError,
    code_from_dict,
    code_to_dict,
    decode,
    decode_batch,
    encode_batch,
    encode_cpc,
    encode_pc,
    nearest_subcode,
    rank_codeword,
    read_stream,
    sort_by_variant,
    subcode_distances,
    unrank_codeword,
    write_stream,
)
from cpcodes.combinatorics import Composition, enumerate_compositions, multinomial_size

from helpers import brute_force_min_distance, enumerate_codebook, random_decreasing_levels


class TestInitialCodeword:
    def test_size_variant1(self):
        cw = InitialCodeword(Composition((3, 2, 2)), (1.0, 0.0, -1.0), VARIANT_I)
        assert cw.size == 210

    def test_size_variant2_zero_level(self):
        cw = InitialCodeword(Composition((2, 1)), (1.5, 0.0), VARIANT_II)
        assert cw.sign_bits == 2
        assert cw.size == 4 * 3

    def test_rejects_nondecreasing(self):
        with pytest.raises(ValueError):
            InitialCodeword(Composition((1, 1)), (0.5, 0.5), VARIANT_I)

    def test_rejects_negative_for_variant2(self):
        with pytest.raises(ValueError):
            InitialCodeword(Composition((1, 1)), (1.0, -0.5), VARIANT_II)

    def test_initial_vector(self):
        cw = InitialCodeword(Composition((2, 1)), (2.0, -1.0), VARIANT_I)
        assert np.array_equal(cw.initial_vector(), [2.0, 2.0, -1.0])

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_negative_zero_level_is_positive_zero(self, variant):
        code = ConcentricCode((InitialCodeword(Composition((1, 1)), (1.0, -0.0), variant),))
        index, w = encode_cpc(np.array([-0.3, 2.0]), code)
        assert decode(index, code).tobytes() == w.tobytes()
        assert json.dumps(code_to_dict(code)["subcodes"][0]["levels"]) == "[1.0, 0.0]"


class TestEncodePC:
    def test_worked_example(self):
        cw = InitialCodeword(Composition((1, 2)), (1.0, -0.5), VARIANT_I)
        out = encode_pc(np.array([0.3, -1.2, 0.9]), cw)
        assert np.array_equal(out, [-0.5, -0.5, 1.0])

    def test_single_level_is_constant(self):
        cw = InitialCodeword(Composition((4,)), (0.25,), VARIANT_I)
        out = encode_pc(np.array([5.0, -2.0, 0.0, 1.0]), cw)
        assert np.array_equal(out, np.full(4, 0.25))

    def test_variant2_signs(self):
        cw = InitialCodeword(Composition((1, 2)), (2.0, 1.0), VARIANT_II)
        out = encode_pc(np.array([0.5, -3.0, 1.0]), cw)
        assert np.array_equal(out, [1.0, -2.0, 1.0])

    def test_variant2_zero_level_emits_positive_zero(self):
        cw = InitialCodeword(Composition((1, 2)), (1.0, 0.0), VARIANT_II)
        out = encode_pc(np.array([-0.4, -3.0, 0.2]), cw)
        assert np.array_equal(out, [0.0, -1.0, 0.0])
        # bit-exact +0.0, not -0.0, so decoded copies match byte for byte
        assert not np.signbit(out[0])

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_permutation_equivariance(self, variant):
        rng = np.random.default_rng(11)
        cw = InitialCodeword(
            Composition((2, 3, 1)), random_decreasing_levels(rng, 3, variant), variant
        )
        for _ in range(20):
            x = rng.standard_normal(6)
            perm = rng.permutation(6)
            direct = encode_pc(x[perm], cw)
            assert np.array_equal(direct, encode_pc(x, cw)[perm])

    def test_brute_force_optimality(self):
        rng = np.random.default_rng(7)
        for variant in (VARIANT_I, VARIANT_II):
            for parts in [(2, 2), (1, 3), (1, 1, 2)]:
                cw = InitialCodeword(
                    Composition(parts),
                    random_decreasing_levels(rng, len(parts), variant),
                    variant,
                )
                codebook = enumerate_codebook(cw)
                assert len(codebook) == cw.size
                for _ in range(200):
                    x = rng.standard_normal(4)
                    w = encode_pc(x, cw)
                    d = float(np.sum((x - w) ** 2))
                    assert d == brute_force_min_distance(x, codebook)


class TestEncodeCPC:
    def _code(self, rng, variant, parts_list):
        subs = tuple(
            InitialCodeword(Composition(p), random_decreasing_levels(rng, len(p), variant), variant)
            for p in parts_list
        )
        return ConcentricCode(subs)

    def test_single_subcode_reduces_to_pc(self):
        rng = np.random.default_rng(1)
        code = self._code(rng, VARIANT_I, [(2, 3)])
        for _ in range(50):
            x = rng.standard_normal(5)
            idx, w = encode_cpc(x, code)
            assert idx.sphere == 0
            assert np.array_equal(w, encode_pc(x, code.subcodes[0]))

    def test_scale_invariant_pattern(self):
        # positive scaling cannot change the ordering, hence not the chosen
        # permutation inside each sphere
        rng = np.random.default_rng(2)
        code = self._code(rng, VARIANT_I, [(2, 2), (2, 2), (2, 2)])
        for _ in range(20):
            x = rng.standard_normal(4)
            patterns = [np.argsort(encode_pc(x, cw)) for cw in code.subcodes]
            scaled = [np.argsort(encode_pc(2.5 * x, cw)) for cw in code.subcodes]
            for a, b in zip(patterns, scaled):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_brute_force_union_optimality(self, variant):
        rng = np.random.default_rng(40 + variant)
        code = self._code(rng, variant, [(2, 3), (1, 4), (5,)])
        union = np.concatenate([enumerate_codebook(cw) for cw in code.subcodes])
        for _ in range(300):
            x = rng.standard_normal(5)
            idx, w = encode_cpc(x, code)
            d = float(np.sum((x - w) ** 2))
            assert d == brute_force_min_distance(x, union)
            assert decode(idx, code) == pytest.approx(w, abs=0)

    def test_one_sort_per_encode(self, monkeypatch):
        rng = np.random.default_rng(3)
        calls = []
        real_argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        for variant in (VARIANT_I, VARIANT_II):
            code = self._code(rng, variant, [(2, 2), (1, 3), (4,)])
            calls.clear()
            encode_cpc(rng.standard_normal(4), code)
            assert len(calls) == 1
            for rows in (0, 1, 7, codec.SHARD_VECTORS, codec.SHARD_VECTORS + 1):
                calls.clear()
                encode_batch(rng.standard_normal((rows, 4)), code)
                assert len(calls) == -(-rows // codec.SHARD_VECTORS)

    def test_batch_distances_match_encoder(self):
        rng = np.random.default_rng(4)
        for variant in (VARIANT_I, VARIANT_II):
            code = self._code(rng, variant, [(2, 2), (1, 1, 2)])
            x = rng.standard_normal((64, 4))
            d = subcode_distances(sort_by_variant(x, variant), code)
            for row, xi in enumerate(x):
                idx, w = encode_cpc(xi, code)
                assert d[row].min() == pytest.approx(float(np.sum((xi - w) ** 2)), rel=1e-12)
                assert int(np.argmin(d[row])) == idx.sphere


class TestSortedSampleRules:
    """The sort, distance and nearest-subcode steps that eval and design share."""

    def test_sort_matches_negated_sort(self):
        rng = np.random.default_rng(5)
        x = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0], size=(200, 7))
        x[:5] = rng.standard_normal((5, 7))
        before = x.copy()
        for variant in (VARIANT_I, VARIANT_II):
            keys = np.abs(x) if variant == VARIANT_II else x
            want = -np.sort(-keys, axis=-1)
            got = sort_by_variant(x, variant)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(x.view(np.int64), before.view(np.int64))

    def test_nearest_subcode_ties_match_argmin(self):
        rng = np.random.default_rng(6)
        d = rng.integers(0, 3, size=(500, 4)).astype(float)
        d[::7, 1] = -0.0
        d[::7, 2] = 0.0
        assign, mind = nearest_subcode(d)
        want = np.argmin(d, axis=1)
        assert np.array_equal(assign, want)
        assert np.array_equal(mind.view(np.int64), d[np.arange(len(d)), want].view(np.int64))
        assert np.array_equal(nearest_subcode(d[:, :1])[0], np.zeros(len(d)))

    def test_shared_composition_columns_unchanged(self):
        rng = np.random.default_rng(7)
        for variant in (VARIANT_I, VARIANT_II):
            comps = [(2, 3, 1), (3, 3), (2, 3, 1), (2, 3, 1)]
            subs = tuple(
                InitialCodeword(Composition(c), random_decreasing_levels(rng, len(c), variant), variant)
                for c in comps
            )
            s = sort_by_variant(rng.standard_normal((300, 6)), variant)
            d = subcode_distances(s, ConcentricCode(subs))
            for j, cw in enumerate(subs):
                alone = subcode_distances(s, ConcentricCode((cw,)))[:, 0]
                assert np.array_equal(d[:, j].view(np.int64), alone.view(np.int64))


@st.composite
def codes_with_tied_rows(draw):
    """A random code (n <= 6, J <= 3) and rows on the same 0.5 grid as its
    levels, so that exact ties between codewords and between spheres occur."""
    n = draw(st.integers(1, 6))
    variant = draw(st.sampled_from([VARIANT_I, VARIANT_II]))
    subs = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        bounds = [0, *cuts, n]
        parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        steps = st.integers(0, 8) if variant == VARIANT_II else st.integers(-6, 6)
        levels = sorted(
            draw(st.lists(steps, min_size=len(parts), max_size=len(parts), unique=True)),
            reverse=True,
        )
        if variant == VARIANT_II and draw(st.booleans()):
            levels[-1] = 0
        subs.append(InitialCodeword(Composition(parts), tuple(0.5 * v for v in levels), variant))
    grid = st.sampled_from([-0.0] + [0.5 * k for k in range(-8, 9)])
    rows = draw(st.lists(st.lists(grid, min_size=n, max_size=n), min_size=1, max_size=8))
    return ConcentricCode(tuple(subs)), np.array(rows, dtype=float)


class TestBatchCore:
    @settings(deadline=None, max_examples=100)
    @given(codes_with_tied_rows())
    def test_matches_brute_force_with_ties(self, case):
        code, X = case
        books = [enumerate_codebook(cw) for cw in code.subcodes]
        union = np.concatenate(books)
        spheres, ranks, W = encode_batch(X, code)
        for x, j, r, w in zip(X, spheres, ranks.tolist(), W):
            d = float(np.sum((x - w) ** 2))
            assert d == brute_force_min_distance(x, union)
            # ties between spheres go to the smaller index
            assert j == min(k for k, book in enumerate(books) if brute_force_min_distance(x, book) == d)
            assert rank_codeword(w, code.subcodes[j]) == r
            idx, w_one = encode_cpc(x, code)
            assert (idx.sphere, idx.rank) == (j, r)
            assert w_one.tobytes() == w.tobytes()
        assert decode_batch(spheres, ranks, code).tobytes() == W.tobytes()
        if code.variant == VARIANT_II:
            assert not np.signbit(W[W == 0.0]).any()

    def test_roundtrip_past_int64(self):
        rng = np.random.default_rng(9)
        for variant, n in ((VARIANT_I, 24), (VARIANT_II, 20)):
            cw = InitialCodeword(Composition((1,) * n), tuple(float(n - i) for i in range(n)), variant)
            code = ConcentricCode((cw,))
            assert cw.size >= 2**63
            X = np.vstack([rng.standard_normal((40, n)), np.arange(n, dtype=float)])
            spheres, ranks, W = encode_batch(X, code)
            assert max(ranks.tolist()) >= 2**63
            assert decode_batch(spheres, ranks, code).tobytes() == W.tobytes()
            for w, r in zip(W, ranks.tolist()):
                assert rank_codeword(w, cw) == r
                assert unrank_codeword(r, cw).tobytes() == w.tobytes()
            # the ascending row is the last arrangement, with every sign bit clear
            assert ranks.tolist()[-1] == (multinomial_size(cw.composition) - 1) << cw.sign_bits

    def test_rejects_non_finite_rows(self):
        code = ConcentricCode((InitialCodeword(Composition((2, 1)), (1.0, -1.0)),))
        for bad in (np.nan, np.inf, -np.inf):
            X = np.zeros((3, 3))
            X[1, 2] = bad
            with pytest.raises(ValueError, match="row 1: non-finite value"):
                encode_batch(X, code)
            with pytest.raises(ValueError, match="non-finite"):
                encode_cpc(X[1], code)

    def test_decode_rejects_foreign_indices(self):
        code = ConcentricCode((InitialCodeword(Composition((2, 1)), (1.0, -1.0)),))
        with pytest.raises(ValueError, match="sphere"):
            decode_batch([0, 1], [0, 0], code)
        with pytest.raises(ValueError, match="rank"):
            decode_batch([0, 0], [2, 3], code)
        with pytest.raises(ValueError, match="rank"):
            decode_batch([0], [-1], code)


class TestRanking:
    def test_initial_codeword_is_rank_zero(self):
        rng = np.random.default_rng(5)
        for variant in (VARIANT_I, VARIANT_II):
            cw = InitialCodeword(
                Composition((2, 1, 2)), random_decreasing_levels(rng, 3, variant), variant
            )
            assert rank_codeword(cw.initial_vector(), cw) == 0

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_roundtrip_all_compositions_n5(self, variant):
        rng = np.random.default_rng(6)
        for comp in enumerate_compositions(5):
            K = comp.num_levels
            cases = [random_decreasing_levels(rng, K, variant)]
            if variant == VARIANT_II:
                cases.append(random_decreasing_levels(rng, K, variant, zero_last=True))
            for levels in cases:
                cw = InitialCodeword(comp, levels, variant)
                seen = set()
                for r in range(cw.size):
                    w = unrank_codeword(r, cw)
                    assert rank_codeword(w, cw) == r
                    seen.add(tuple(w.tolist()))
                assert len(seen) == cw.size

    def test_unrank_enumerates_true_codebook(self):
        rng = np.random.default_rng(8)
        for variant in (VARIANT_I, VARIANT_II):
            for parts in [(2, 2), (1, 3), (2, 1, 1)]:
                zero_cases = [False] if variant == VARIANT_I else [False, True]
                for zero_last in zero_cases:
                    cw = InitialCodeword(
                        Composition(parts),
                        random_decreasing_levels(rng, len(parts), variant, zero_last),
                        variant,
                    )
                    ours = {tuple(unrank_codeword(r, cw).tolist()) for r in range(cw.size)}
                    brute = {tuple(row.tolist()) for row in enumerate_codebook(cw)}
                    assert ours == brute

    def test_rank_rejects_foreign_vectors(self):
        cw = InitialCodeword(Composition((2, 1)), (1.0, 0.5), VARIANT_I)
        with pytest.raises(ValueError):
            rank_codeword(np.array([1.0, 1.0, 1.0]), cw)  # wrong multiplicities
        with pytest.raises(ValueError):
            rank_codeword(np.array([1.0, 0.25, 0.5]), cw)  # unknown level

    def test_unrank_range_check(self):
        cw = InitialCodeword(Composition((2, 1)), (1.0, 0.5), VARIANT_I)
        with pytest.raises(ValueError):
            unrank_codeword(3, cw)
        with pytest.raises(ValueError):
            unrank_codeword(-1, cw)


class TestSerialization:
    def _sample_code(self):
        return ConcentricCode(
            (
                InitialCodeword(Composition((2, 1)), (1.25, 0.0), VARIANT_II),
                InitialCodeword(Composition((1, 2)), (2.0, 0.5), VARIANT_II),
            ),
            probs=(0.25, 0.75),
        )

    def test_json_roundtrip(self):
        code = self._sample_code()
        doc = json.loads(json.dumps(code_to_dict(code)))
        back = code_from_dict(doc)
        assert back == code

    def test_dimension_consistency_checked(self):
        doc = code_to_dict(self._sample_code())
        doc["n"] = 9
        with pytest.raises(ValueError):
            code_from_dict(doc)

    def test_stream_roundtrip(self):
        rng = np.random.default_rng(12)
        code = self._sample_code()
        indices = [encode_cpc(rng.standard_normal(3), code)[0] for _ in range(100)]
        buf = io.BytesIO()
        write_stream(buf, code, indices)
        buf.seek(0)
        assert read_stream(buf, code) == indices

    def test_stream_empty(self):
        code = self._sample_code()
        buf = io.BytesIO()
        write_stream(buf, code, [])
        buf.seek(0)
        assert read_stream(buf, code) == []

    def test_stream_bad_magic(self):
        code = self._sample_code()
        with pytest.raises(StreamError):
            read_stream(io.BytesIO(b"nope"), code)

    def test_stream_truncated(self):
        code = self._sample_code()
        buf = io.BytesIO()
        write_stream(buf, code, [EncodedIndex(0, 5)])
        data = buf.getvalue()[:-1]
        with pytest.raises(StreamError):
            read_stream(io.BytesIO(data), code)

    def test_stream_rank_out_of_range(self):
        code = self._sample_code()
        buf = io.BytesIO()
        write_stream(buf, code, [EncodedIndex(0, code.sizes[0])])
        buf.seek(0)
        with pytest.raises(StreamError):
            read_stream(buf, code)

    def test_stream_wrong_codebook(self):
        code = self._sample_code()
        other = ConcentricCode(
            (InitialCodeword(Composition((3,)), (1.0,), VARIANT_II),)
        )
        buf = io.BytesIO()
        write_stream(buf, code, [])
        buf.seek(0)
        with pytest.raises(StreamError):
            read_stream(buf, other)

    def test_stream_one_write_one_read(self):
        class Counting(io.BytesIO):
            calls = 0

            def write(self, data):
                self.calls += 1
                return super().write(data)

            def read(self, *size):
                self.calls += 1
                return super().read(*size)

        code = self._sample_code()
        indices = [EncodedIndex(j % code.J, 3 * j % code.sizes[j % code.J]) for j in range(50)]
        out = Counting()
        assert write_stream(out, code, iter(indices)) == 50
        assert out.calls == 1
        back = Counting(out.getvalue())
        assert read_stream(back, code) == indices
        assert back.calls == 1
