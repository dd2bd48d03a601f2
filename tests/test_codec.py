import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcodes import codec
from cpcodes.codec import (
    VARIANT_I,
    VARIANT_II,
    ConcentricCode,
    InitialCodeword,
    StreamError,
    code_from_dict,
    code_to_dict,
    decode_batch,
    encode_batch,
    encode_cpc,
    load_code,
    nearest_subcode,
    rank_codeword,
    read_stream,
    score_draws,
    sort_by_variant,
    sorted_distances,
    unrank_codeword,
    write_stream,
)
from cpcodes.combinatorics import Composition, enumerate_compositions, multinomial_size
from cpcodes.streams import CHUNK_ROWS

from helpers import (
    brute_force_min_distance,
    enumerate_codebook,
    random_decreasing_levels,
    sorted_order_distances,
)

DATA = Path(__file__).parent / "data"


def sorted_block(x, variant):
    """The coordinate-major sorted block that ``sorted_distances`` takes."""
    return np.ascontiguousarray(sort_by_variant(x, variant).T)


def nearest_pc(x, cw):
    """Nearest codeword to ``x`` in the single permutation codebook of ``cw``."""
    return encode_cpc(x, ConcentricCode((cw,)))[1]


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
        (sphere, rank), w = encode_cpc(np.array([-0.3, 2.0]), code)
        assert decode_batch([sphere], [rank], code)[0].tobytes() == w.tobytes()
        assert json.dumps(code_to_dict(code)["subcodes"][0]["levels"]) == "[1.0, 0.0]"


class TestEncodePC:
    def test_worked_example(self):
        cw = InitialCodeword(Composition((1, 2)), (1.0, -0.5), VARIANT_I)
        out = nearest_pc(np.array([0.3, -1.2, 0.9]), cw)
        assert np.array_equal(out, [-0.5, -0.5, 1.0])

    def test_single_level_is_constant(self):
        cw = InitialCodeword(Composition((4,)), (0.25,), VARIANT_I)
        out = nearest_pc(np.array([5.0, -2.0, 0.0, 1.0]), cw)
        assert np.array_equal(out, np.full(4, 0.25))

    def test_variant2_signs(self):
        cw = InitialCodeword(Composition((1, 2)), (2.0, 1.0), VARIANT_II)
        out = nearest_pc(np.array([0.5, -3.0, 1.0]), cw)
        assert np.array_equal(out, [1.0, -2.0, 1.0])

    def test_variant2_zero_level_emits_positive_zero(self):
        cw = InitialCodeword(Composition((1, 2)), (1.0, 0.0), VARIANT_II)
        out = nearest_pc(np.array([-0.4, -3.0, 0.2]), cw)
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
            direct = nearest_pc(x[perm], cw)
            assert np.array_equal(direct, nearest_pc(x, cw)[perm])

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
                    w = nearest_pc(x, cw)
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
            (sphere, rank), w = encode_cpc(x, code)
            assert sphere == 0
            assert np.array_equal(w, nearest_pc(x, code.subcodes[0]))
            assert rank == rank_codeword(w, code.subcodes[0])

    def test_scale_invariant_pattern(self):
        # positive scaling cannot change the ordering, hence not the chosen
        # permutation inside each sphere
        rng = np.random.default_rng(2)
        code = self._code(rng, VARIANT_I, [(2, 2), (2, 2), (2, 2)])
        for _ in range(20):
            x = rng.standard_normal(4)
            patterns = [np.argsort(nearest_pc(x, cw)) for cw in code.subcodes]
            scaled = [np.argsort(nearest_pc(2.5 * x, cw)) for cw in code.subcodes]
            for a, b in zip(patterns, scaled):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_brute_force_union_optimality(self, variant):
        rng = np.random.default_rng(40 + variant)
        code = self._code(rng, variant, [(2, 3), (1, 4), (5,)])
        union = np.concatenate([enumerate_codebook(cw) for cw in code.subcodes])
        for _ in range(300):
            x = rng.standard_normal(5)
            (sphere, rank), w = encode_cpc(x, code)
            d = float(np.sum((x - w) ** 2))
            assert d == brute_force_min_distance(x, union)
            assert decode_batch([sphere], [rank], code)[0] == pytest.approx(w, abs=0)

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
            for rows in (0, 1, 7, codec.CHUNK_ROWS, codec.CHUNK_ROWS + 1):
                calls.clear()
                encode_batch(rng.standard_normal((rows, 4)), code)
                assert len(calls) == -(-rows // codec.CHUNK_ROWS)

    def test_batch_distances_match_encoder(self):
        rng = np.random.default_rng(4)
        for variant in (VARIANT_I, VARIANT_II):
            code = self._code(rng, variant, [(2, 2), (1, 1, 2)])
            x = rng.standard_normal((64, 4))
            assign, mind = nearest_subcode(sorted_distances(sorted_block(x, variant), code))
            for row, xi in enumerate(x):
                (sphere, _), w = encode_cpc(xi, code)
                assert sphere == assign[row]
                assert mind[row].hex() == sorted_order_distances(xi[None], w[None], variant)[0].hex()
        # the encoder and the evaluator pick the same sphere, at the same
        # distance, on a large Gaussian block of each book
        for book in ("golden_v1", "golden_v2", "golden_n9"):
            code = load_code(DATA / f"{book}.json")
            x = rng.standard_normal((20_000, code.n))
            spheres, _, W = encode_batch(x, code)
            assign, mind = nearest_subcode(sorted_distances(sorted_block(x, code.variant), code))
            assert np.array_equal(spheres, assign)
            assert mind.tobytes() == sorted_order_distances(x, W, code.variant).tobytes()


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
        # one row per sphere; +0.0 and negative entries tie and compete as
        # the Lloyd rounds' expanded-form distances do
        rng = np.random.default_rng(6)
        d = rng.integers(-2, 3, size=(4, 500)).astype(float)
        d[1, ::7] = 0.0
        d[2, ::7] = 0.0
        assign, mind = nearest_subcode(d)
        want = np.argmin(d, axis=0)
        assert np.array_equal(assign, want)
        assert np.array_equal(mind.view(np.int64), d[want, np.arange(d.shape[1])].view(np.int64))
        assert np.array_equal(nearest_subcode(d[:1])[0], np.zeros(d.shape[1]))

    def test_shared_composition_rows_unchanged(self):
        rng = np.random.default_rng(7)
        for variant in (VARIANT_I, VARIANT_II):
            comps = [(2, 3, 1), (3, 3), (2, 3, 1), (2, 3, 1)]
            subs = tuple(
                InitialCodeword(Composition(c), random_decreasing_levels(rng, len(c), variant), variant)
                for c in comps
            )
            sT = sorted_block(rng.standard_normal((300, 6)), variant)
            d = sorted_distances(sT, ConcentricCode(subs))
            for j, cw in enumerate(subs):
                alone = sorted_distances(sT, ConcentricCode((cw,)))[0]
                assert np.array_equal(d[j].view(np.int64), alone.view(np.int64))

    def test_sorted_distances_add_left_to_right(self):
        rng = np.random.default_rng(8)
        for variant, zero_last in ((VARIANT_I, False), (VARIANT_II, False), (VARIANT_II, True)):
            subs = tuple(
                InitialCodeword(
                    Composition(c), random_decreasing_levels(rng, len(c), variant, zero_last), variant
                )
                for c in [(2, 1, 3, 1), (7,), (1, 1, 1, 1, 1, 1, 1)]
            )
            x = 3.0 * rng.standard_normal((40, 7))
            sT = sorted_block(x, variant)
            d = sorted_distances(sT, ConcentricCode(subs))
            assert d.shape == (3, 40)
            for j, cw in enumerate(subs):
                vector = cw.initial_vector().tolist()
                for r in range(len(x)):
                    total = 0.0
                    for p, level in enumerate(vector):
                        diff = float(sT[p, r]) - level
                        total += diff * diff
                    assert float(d[j, r]).hex() == total.hex()

    @pytest.mark.parametrize("rows", [1, CHUNK_ROWS - 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1811])
    def test_score_draws_equals_whole_draw(self, rows):
        """One call over codes of both variants and several J scores the
        draws block by block as the rule scores the whole draw at once, bit
        for bit in distances and sphere hits."""
        rng = np.random.default_rng(9)
        n, sigma = 6, 1.7
        books = [(VARIANT_I, [(2, 3, 1), (3, 3)]), (VARIANT_II, [(1, 2, 3), (6,), (2, 2, 2)]),
                 (VARIANT_I, [(1, 1, 1, 1, 1, 1)]), (VARIANT_II, [(4, 2), (1, 5)])]
        codes = [
            ConcentricCode(tuple(
                InitialCodeword(Composition(c), random_decreasing_levels(rng, len(c), variant), variant)
                for c in comps
            ))
            for variant, comps in books
        ]
        dists = [np.full(rows, np.nan) for _ in codes]
        hits = score_draws(np.random.default_rng(3), rows, sigma, codes, dists)
        x = np.random.default_rng(3).standard_normal((rows, n)) * sigma
        for code, d, h in zip(codes, dists, hits):
            assign, mind = nearest_subcode(sorted_distances(sort_by_variant(x, code.variant).T, code))
            assert np.array_equal(d.view(np.int64), mind.view(np.int64))
            assert h.dtype == np.int64
            assert np.array_equal(h, np.bincount(assign, minlength=code.J))


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


@st.composite
def codes_with_near_ties(draw):
    """A random code (n <= 8, J <= 4, both variants, zero last levels) and
    rows on the 0.5 grid of its levels, some entries moved by one ulp, so
    that codewords and spheres tie exactly or to the last bit."""
    n = draw(st.integers(1, 8))
    variant = draw(st.sampled_from([VARIANT_I, VARIANT_II]))
    subs = []
    for _ in range(draw(st.integers(1, 4))):
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
        subs.append(InitialCodeword(Composition(parts), tuple(0.25 * v for v in levels), variant))
    grid = st.sampled_from([-0.0] + [0.25 * k for k in range(-12, 13)])
    nudge = st.sampled_from([0, 0, -1, 1])  # ulps
    cells = st.tuples(grid, nudge).map(
        lambda c: float(np.nextafter(c[0], np.inf * c[1])) if c[1] else c[0]
    )
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=8))
    return ConcentricCode(tuple(subs)), np.array(rows, dtype=float)


def assert_one_rule(code, X):
    """The encoder's sphere is the evaluator's ``assign`` and the distance
    to its codeword, summed over the sorted coordinates, the evaluator's
    ``mind``, bit for bit, on every row of ``X``."""
    spheres, _, W = encode_batch(X, code)
    assign, mind = nearest_subcode(sorted_distances(sorted_block(X, code.variant), code))
    assert np.array_equal(spheres, assign)
    assert mind.tobytes() == sorted_order_distances(X, W, code.variant).tobytes()


class TestOneRule:
    """Encoder and evaluator: one sphere, one distance."""

    @settings(deadline=None, max_examples=150)
    @given(codes_with_near_ties())
    def test_encoder_matches_evaluator(self, case):
        assert_one_rule(*case)

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_boundary_rows(self, variant):
        """Rows within a few ulps of the boundary between two spheres, where
        the order of summation decides the winner."""
        levels = {VARIANT_I: [(1.9, 0.7, -0.4, -1.6), (1.3, 0.2, -1.1)],
                  VARIANT_II: [(2.1, 1.2, 0.4, 0.0), (1.5, 0.6, 0.1)]}[variant]
        subs = tuple(InitialCodeword(Composition(parts), lv, variant)
                     for parts, lv in zip([(2, 2, 3, 1), (1, 4, 3)], levels))
        a, b = (cw.initial_vector() for cw in subs)
        rng = np.random.default_rng(12)
        rows = []
        for x in rng.standard_normal((100, 8)):
            s = sort_by_variant(x, variant)
            scale = (a @ a - b @ b) / (2.0 * (s @ a - s @ b))  # equidistant in exact arithmetic
            for ulps in range(-4, 5):
                rows.append(x * (scale + ulps * np.spacing(scale)))
        X = np.array(rows)
        assert_one_rule(ConcentricCode(subs), X)
        # the rows are sharp: summed in input order, the distances pick
        # another sphere on some of them
        unsorted = np.stack([((X - encode_batch(X, ConcentricCode((cw,)))[2]) ** 2).sum(axis=1)
                             for cw in subs])
        assign = nearest_subcode(sorted_distances(sorted_block(X, variant), ConcentricCode(subs)))[0]
        assert (nearest_subcode(unsorted)[0] != assign).any()

    @pytest.mark.parametrize("book", ["golden_v1", "golden_v2"])
    def test_golden_vectors(self, book):
        lines = (DATA / "golden_vectors.csv").read_text().splitlines()
        X = np.array([[float(v) for v in line.split(",")] for line in lines if line.strip()])
        assert_one_rule(load_code(DATA / f"{book}.json"), X)


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
            index, w_one = encode_cpc(x, code)
            assert index == (j, r)
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
            buf = io.BytesIO()
            write_stream(buf, code, spheres, ranks)
            back_spheres, back_ranks = read_stream(io.BytesIO(buf.getvalue()), code)
            assert np.array_equal(back_spheres, spheres)
            assert back_ranks.dtype == object and back_ranks.tolist() == ranks.tolist()
            for w, r in zip(W, ranks.tolist()):
                assert rank_codeword(w, cw) == r
                assert unrank_codeword(r, cw).tobytes() == w.tobytes()
            # the ascending row is the last arrangement, with every sign bit clear
            assert ranks.tolist()[-1] == (multinomial_size(cw.composition.parts) - 1) << cw.sign_bits

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

    @pytest.mark.parametrize("probs", [(np.nan, 1.0), (np.inf, -np.inf), (0.25, np.nan)])
    def test_non_finite_probs_rejected(self, probs):
        """A NaN compares False with every bound, so each prob is checked finite."""
        with pytest.raises(ValueError, match="probabilities"):
            ConcentricCode(self._sample_code().subcodes, probs=probs)

    def test_dimension_consistency_checked(self):
        doc = code_to_dict(self._sample_code())
        doc["n"] = 9
        with pytest.raises(ValueError):
            code_from_dict(doc)

    def test_stream_roundtrip(self):
        rng = np.random.default_rng(12)
        code = self._sample_code()
        spheres, ranks, _ = encode_batch(rng.standard_normal((100, 3)), code)
        buf = io.BytesIO()
        assert write_stream(buf, code, spheres, ranks) == 100
        buf.seek(0)
        back_spheres, back_ranks = read_stream(buf, code)
        assert np.array_equal(back_spheres, spheres) and back_spheres.dtype == np.int64
        assert np.array_equal(back_ranks, ranks) and back_ranks.dtype == ranks.dtype
        with pytest.raises(ValueError, match="one sphere and one rank"):
            write_stream(io.BytesIO(), code, spheres, ranks[:-1])

    def test_stream_empty(self):
        code = self._sample_code()
        buf = io.BytesIO()
        write_stream(buf, code, [], [])
        buf.seek(0)
        spheres, ranks = read_stream(buf, code)
        assert spheres.shape == ranks.shape == (0,)

    def test_stream_bad_magic(self):
        code = self._sample_code()
        with pytest.raises(StreamError):
            read_stream(io.BytesIO(b"nope"), code)

    def test_stream_truncated(self):
        code = self._sample_code()
        buf = io.BytesIO()
        write_stream(buf, code, [0], [5])
        data = buf.getvalue()[:-1]
        with pytest.raises(StreamError):
            read_stream(io.BytesIO(data), code)

    def test_stream_rank_out_of_range(self):
        code = self._sample_code()
        buf = io.BytesIO()
        write_stream(buf, code, [0], [code.sizes[0]])
        buf.seek(0)
        with pytest.raises(StreamError):
            read_stream(buf, code)

    def test_stream_wrong_codebook(self):
        code = self._sample_code()
        other = ConcentricCode(
            (InitialCodeword(Composition((3,)), (1.0,), VARIANT_II),)
        )
        buf = io.BytesIO()
        write_stream(buf, code, [], [])
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
        spheres = [j % code.J for j in range(50)]
        ranks = [3 * j % code.sizes[s] for j, s in enumerate(spheres)]
        out = Counting()
        assert write_stream(out, code, spheres, ranks) == 50
        assert out.calls == 1
        back = Counting(out.getvalue())
        back_spheres, back_ranks = read_stream(back, code)
        assert back_spheres.tolist() == spheres and back_ranks.tolist() == ranks
        assert back.calls == 1

    @pytest.mark.parametrize("book", ["golden_v1", "golden_v2"])
    def test_golden_streams_in_process(self, book):
        """The array API writes the pinned CPC1 bytes and reads back the
        pinned reconstructions, without the command line in between."""
        code = load_code(DATA / f"{book}.json")
        lines = (DATA / "golden_vectors.csv").read_text().splitlines()
        X = np.array([[float(v) for v in line.split(",")] for line in lines if line.strip()])
        spheres, ranks, W = encode_batch(X, code)
        buf = io.BytesIO()
        write_stream(buf, code, spheres, ranks)
        assert buf.getvalue() == (DATA / f"{book}.cpc").read_bytes()
        with open(DATA / f"{book}.cpc", "rb") as fp:
            decoded = decode_batch(*read_stream(fp, code), code)
        assert decoded.tobytes() == W.tobytes()
        text = "".join(",".join(repr(v) for v in row) + "\n" for row in decoded.tolist())
        assert text == (DATA / f"{book}_decoded.csv").read_text()

    def test_every_cut_of_golden_stream_fails_or_keeps_a_prefix(self):
        """A stream cut at any byte either raises StreamError or reads back the
        first records unchanged; no cut yields a record that was not written."""
        code = load_code(DATA / "golden_v1.json")
        data = (DATA / "golden_v1.cpc").read_bytes()
        spheres, ranks = read_stream(io.BytesIO(data), code)
        prefixes = 0
        for cut in range(len(data)):
            try:
                got_spheres, got_ranks = read_stream(io.BytesIO(data[:cut]), code)
            except StreamError:
                continue
            k = len(got_spheres)
            assert k < len(spheres)
            assert np.array_equal(got_spheres, spheres[:k]) and np.array_equal(got_ranks, ranks[:k])
            prefixes += 1
        assert prefixes > 0

    @pytest.mark.parametrize("suffix", [b"\x00\x00", b"\x00\x03\x00\x00\x00",
                                        b"\x80\x00\x01\x00"])
    def test_non_canonical_record_rejected(self, suffix):
        """A record the writer never emits is corrupt, not one more vector: a
        zero-length rank, a rank with leading zero bytes, an overlong varint."""
        code = load_code(DATA / "golden_v1.json")
        data = (DATA / "golden_v1.cpc").read_bytes()
        with pytest.raises(StreamError):
            read_stream(io.BytesIO(data + suffix), code)

    @settings(max_examples=400, deadline=None)
    @given(book=st.sampled_from(["golden_v1", "golden_v2"]), suffix=st.binary(max_size=12),
           edit=st.none() | st.tuples(st.integers(0, 2**20), st.integers(0, 255)))
    def test_every_accepted_stream_reencodes_to_itself(self, book, suffix, edit):
        """Whatever a golden stream becomes, with bytes appended or one byte
        changed, read_stream either raises or returns what write_stream turns
        back into the same bytes."""
        code = load_code(DATA / f"{book}.json")
        data = bytearray((DATA / f"{book}.cpc").read_bytes())
        if edit is not None:
            data[edit[0] % len(data)] = edit[1]
        data += suffix
        try:
            spheres, ranks = read_stream(io.BytesIO(bytes(data)), code)
        except StreamError:
            return
        out = io.BytesIO()
        write_stream(out, code, spheres, ranks)
        assert out.getvalue() == bytes(data)
