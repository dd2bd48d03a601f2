import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcodes import cephes, evaluation
from cpcodes.codec import (
    VARIANT_I,
    VARIANT_II,
    ConcentricCode,
    InitialCodeword,
    nearest_subcode,
    sort_by_variant,
    sorted_distances,
)
from cpcodes.combinatorics import Composition
from cpcodes.design import optimal_levels_single, pc_distortion_exact
from cpcodes.evaluation import (
    MIN_SAMPLES,
    RDPoint,
    ecsq_curve,
    ecusq_curve,
    empirical_distortion,
    empirical_distortions,
    entropy_bits,
    pareto_filter,
    rate_fixed,
    rate_variable,
    rd_points_to_csv,
    shannon_bound,
)
from cpcodes.order_stats import gaussian_order_stats
from cpcodes.streams import CHUNK_ROWS, SHARD_VECTORS, normal_blocks, substream

from helpers import random_decreasing_levels


def origin_code(n):
    return ConcentricCode((InitialCodeword(Composition((n,)), (0.0,), VARIANT_I),))


class TestEmpiricalDistortion:
    def test_origin_code_gives_variance(self):
        m = empirical_distortion(origin_code(6), 100_000, seed=1)
        assert abs(m.distortion - 1.0) <= 3.0 * m.stderr

    def test_matches_exact_formula(self):
        t = gaussian_order_stats(8)
        cw = optimal_levels_single(Composition((2, 4, 2)), t, VARIANT_I)
        m = empirical_distortion(ConcentricCode((cw,)), 150_000, seed=2)
        assert abs(m.distortion - pc_distortion_exact(cw, t)) <= 3.0 * m.stderr

    def test_probs_count_to_one(self):
        rng = np.random.default_rng(3)
        subs = tuple(
            InitialCodeword(Composition((2, 3)), random_decreasing_levels(rng, 2, VARIANT_I), VARIANT_I)
            for _ in range(3)
        )
        m = empirical_distortion(ConcentricCode(subs), 50_000, seed=3)
        assert sum(m.probs) == pytest.approx(1.0, abs=0)

    def test_deterministic_across_threads(self):
        code = origin_code(5)
        a = empirical_distortion(code, 200_000, seed=4, threads=1)
        b = empirical_distortion(code, 200_000, seed=4, threads=8)
        assert a == b

    def test_sigma_scaling(self):
        m = empirical_distortion(origin_code(4), 50_000, seed=5, sigma=2.0)
        assert abs(m.distortion - 4.0) <= 3.0 * m.stderr

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            empirical_distortion(origin_code(4), 100, seed=0)

    def test_thread_count_must_be_positive_integer(self, monkeypatch):
        monkeypatch.delenv("CPC_THREADS", raising=False)
        assert evaluation.threads_from_env() == 1
        assert evaluation.threads_from_env(3) == 3
        for bad in (0, -2):
            with pytest.raises(ValueError):
                evaluation.threads_from_env(bad)
        for env, want in (("2", 2), ("", 1), ("abc", None), ("0", None)):
            monkeypatch.setenv("CPC_THREADS", env)
            if want is None:
                with pytest.raises(ValueError):
                    evaluation.threads_from_env()
            else:
                assert evaluation.threads_from_env() == want


def mixed_codes():
    """Two dimensions, both variants, and two codes that share one sort."""
    rng = np.random.default_rng(8)

    def code(variant, *comps):
        return ConcentricCode(tuple(
            InitialCodeword(Composition(c), random_decreasing_levels(rng, len(c), variant), variant)
            for c in comps
        ))

    return [
        code(VARIANT_I, (2, 3), (1, 4)),
        code(VARIANT_II, (2, 3), (5,), (1, 1, 3)),
        code(VARIANT_I, (3, 2, 2)),
        code(VARIANT_I, (1, 2, 2), (2, 3), (2, 3)),
    ]


class TestEmpiricalDistortions:
    SAMPLES = 2 * SHARD_VECTORS + 8_928  # two full shards and a partial one

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    @pytest.mark.parametrize("which", [slice(None), slice(1, 2)], ids=["all", "one"])
    def test_equals_one_code_calls(self, threads, sigma, which):
        codes = mixed_codes()[which]
        got = empirical_distortions(codes, self.SAMPLES, seed=9, sigma=sigma, threads=threads)
        want = [empirical_distortion(c, self.SAMPLES, seed=9, sigma=sigma, threads=1) for c in codes]
        assert got == want

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_draw_per_shard_and_dimension(self, monkeypatch, threads):
        calls = []
        substream = evaluation.substream

        def counting(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(evaluation, "substream", counting)
        empirical_distortions(mixed_codes(), self.SAMPLES, seed=3, threads=threads)
        # three shards, each drawn once for n=5 and once for n=7
        assert sorted(calls) == sorted([(3, "eval", shard) for shard in range(3)] * 2)


class TestChunkedShards:
    """A shard is drawn, sorted and scored ``CHUNK_ROWS`` rows at a time and
    gives the bits of one whole-shard computation."""

    @pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS + 1, SHARD_VECTORS + 1])
    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_blocks_sorted_one_by_one_equal_one_sort(self, rows, sigma):
        blocks = [(lo, x.copy()) for lo, x in normal_blocks(substream(4, "eval", 1), rows, 5, sigma)]
        assert [lo for lo, _ in blocks] == list(range(0, rows, CHUNK_ROWS))
        x = substream(4, "eval", 1).standard_normal((rows, 5)) * sigma
        drawn = np.concatenate([np.empty((0, 5))] + [b for _, b in blocks])
        assert np.array_equal(drawn.view(np.int64), x.view(np.int64))
        x[::3, 1] = x[::3, 2]  # ties
        x[::7, 0] = -x[::7, 4]  # ties of magnitude
        x[::5, 3] = -0.0
        for variant in (VARIANT_I, VARIANT_II):
            got = np.concatenate([np.empty((0, 5))]
                                 + [sort_by_variant(x[lo : lo + len(b)], variant) for lo, b in blocks])
            assert np.array_equal(got.view(np.int64), sort_by_variant(x, variant).view(np.int64))

    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_shard_equals_whole_shard_formula(self, sigma):
        samples = 2 * CHUNK_ROWS + 1234  # one partial shard
        code = mixed_codes()[1]
        got = empirical_distortion(code, samples, seed=6, sigma=sigma)
        x = substream(6, "eval", 0).standard_normal((samples, code.n)) * sigma
        assign, mind = nearest_subcode(sorted_distances(
            np.ascontiguousarray(sort_by_variant(x, code.variant).T), code))
        mind /= code.n
        mean = float(mind.sum()) / samples
        var = max(float((mind * mind).sum()) / samples - mean * mean, 0.0) * samples / (samples - 1)
        assert got.distortion.hex() == mean.hex()
        assert got.stderr.hex() == math.sqrt(var / samples).hex()
        assert got.probs == tuple(np.bincount(assign, minlength=code.J) / samples)

    def test_worker_holds_chunks_not_shards(self):
        """numpy registers its buffers with tracemalloc: over three shards one
        worker holds less than one ``SHARD_VECTORS x n`` draw."""
        n = 16
        codes = [
            ConcentricCode(tuple(InitialCodeword(Composition(c), lv, variant) for c, lv in books))
            for variant, books in (
                (VARIANT_I, [((4, 4, 4, 4), (1.2, 0.4, -0.4, -1.2)), ((2, 6, 6, 2), (2.0, 0.6, -0.6, -2.0))]),
                (VARIANT_II, [((8, 8), (1.3, 0.4)), ((4, 8, 4), (2.0, 1.0, 0.3))]),
            )
        ]
        empirical_distortions(codes, MIN_SAMPLES, seed=1, threads=1)  # the pool's first start
        tracemalloc.start()
        try:
            empirical_distortions(codes, 3 * SHARD_VECTORS, seed=1, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < SHARD_VECTORS * n * 8, peak / (SHARD_VECTORS * n * 8)


class TestRates:
    def test_variable_single_subcode(self):
        t = gaussian_order_stats(7)
        cw = optimal_levels_single(Composition((3, 2, 2)), t, VARIANT_I)
        code = ConcentricCode((cw,))
        assert rate_variable(code, (1.0,)) == pytest.approx(math.log2(210) / 7, abs=0)

    def test_variable_uniform_over_equal_sizes(self):
        rng = np.random.default_rng(6)
        subs = tuple(
            InitialCodeword(Composition((2, 2)), random_decreasing_levels(rng, 2, VARIANT_I), VARIANT_I)
            for _ in range(4)
        )
        code = ConcentricCode(subs)
        want = (math.log2(4) + math.log2(6)) / 4
        assert rate_variable(code, (0.25,) * 4) == pytest.approx(want, rel=1e-12)

    def test_entropy_term_nonnegative(self):
        rng = np.random.default_rng(7)
        subs = tuple(
            InitialCodeword(Composition((1, 3)), random_decreasing_levels(rng, 2, VARIANT_I), VARIANT_I)
            for _ in range(3)
        )
        code = ConcentricCode(subs)
        p = (0.6, 0.3, 0.1)
        floor = sum(pj * math.log2(m) for pj, m in zip(p, code.sizes)) / 4
        assert rate_variable(code, p) >= floor

    def test_fixed_rate_exact_log(self):
        t = gaussian_order_stats(7)
        cw = optimal_levels_single(Composition((3, 2, 2)), t, VARIANT_I)
        assert rate_fixed(ConcentricCode((cw,))) == pytest.approx(math.log2(210) / 7, abs=0)

    def test_fixed_rate_union(self):
        rng = np.random.default_rng(8)
        subs = tuple(
            InitialCodeword(Composition((2, 2)), random_decreasing_levels(rng, 2, VARIANT_I), VARIANT_I)
            for _ in range(2)
        )
        assert rate_fixed(ConcentricCode(subs)) == pytest.approx(math.log2(12) / 4, abs=0)

    def test_single_codeword_subcodes(self):
        rng = np.random.default_rng(9)
        subs = tuple(
            InitialCodeword(Composition((5,)), (float(v),), VARIANT_I)
            for v in sorted(rng.standard_normal(3))
        )
        assert rate_fixed(ConcentricCode(subs)) == pytest.approx(math.log2(3) / 5, abs=0)


class TestScalarBaselines:
    def test_huge_step_collapses_to_zero_rate(self):
        for curve in (ecsq_curve, ecusq_curve):
            (point,) = curve([1e6])
            assert point.rate == 0.0
            assert point.distortion == pytest.approx(1.0, abs=1e-12)

    def test_conditional_means_never_worse(self):
        steps = np.geomspace(0.05, 30.0, 40)
        for a, b in zip(ecsq_curve(steps), ecusq_curve(steps)):
            assert a.rate == pytest.approx(b.rate, abs=0)  # same cells, same entropy
            assert a.distortion <= b.distortion + 1e-15

    def test_high_rate_slope(self):
        # 6.02 dB per bit in the fine-step regime
        pts = ecsq_curve([0.02, 0.01])
        slope = (
            10.0 * math.log10(pts[1].distortion / pts[0].distortion)
        ) / (pts[1].rate - pts[0].rate)
        assert slope == pytest.approx(-6.02, abs=0.05)

    def test_fine_step_distortion_matches_high_rate_model(self):
        (p,) = ecusq_curve([0.01])
        assert p.distortion == pytest.approx(0.01**2 / 12.0, rel=1e-3)

    def test_sigma_scaling(self):
        (unit,) = ecsq_curve([0.5])
        (scaled,) = ecsq_curve([1.0], sigma=2.0)
        assert scaled.rate == pytest.approx(unit.rate, rel=1e-12)
        assert scaled.distortion == pytest.approx(4.0 * unit.distortion, rel=1e-12)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            ecsq_curve([0.0])

    def test_no_steps_no_points(self):
        assert ecsq_curve([]) == [] and ecusq_curve([]) == []


def _cell_edges(sigma):
    """Every finite cell edge of the default baseline steps at ``sigma``."""
    out = []
    for step in evaluation.DEFAULT_BASELINE_STEPS:
        k_max = max(1, int(math.ceil(10.0 * sigma / step + 0.5)))
        out.append((np.arange(-k_max, k_max + 2) - 0.5) * step / sigma)
    return np.concatenate(out)


def _branch_points():
    """Cephes ndtr's branch boundaries (erf/erfc at |x| = sqrt(1/2) and 1,
    P/Q versus R/S at 8, underflow at sqrt(MAXLOG)) in ``a = x sqrt(2)``
    units, each with its neighbouring doubles, plus signed zeros, infinities
    and NaN."""
    pts = []
    for v in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * cephes.MAXLOG)):
        for a in (v, -v):
            pts += [np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)]
    return np.array(pts + [0.0, -0.0, np.inf, -np.inf, np.nan])


class TestNdtr:
    """The private normal CDF is scipy's Cephes ndtr, bit for bit."""

    @pytest.mark.parametrize("name", ["edges", "random", "branches"])
    def test_bit_identical_to_scipy(self, name):
        special = pytest.importorskip("scipy.special")
        a = {
            "edges": lambda: np.concatenate([_cell_edges(s) for s in (0.5, 1.0, 2.0, 3.7)]),
            "random": lambda: np.random.default_rng(20091).uniform(-40.0, 40.0, 200_000),
            "branches": _branch_points,
        }[name]()
        got = [v.hex() for v in cephes.ndtr(a).tolist()]
        want = [v.hex() for v in special.ndtr(a).tolist()]
        bad = [(x, g, w) for x, g, w in zip(a.tolist(), got, want) if g != w]
        assert not bad, f"{len(bad)} of {a.size} differ, first {bad[:3]}"

    def test_no_floating_point_warnings(self):
        with np.errstate(all="raise"):
            cephes.ndtr(np.array([-1e300, -40.0, 40.0, 1e300, np.inf, -np.inf, np.nan]))


class TestShannonBound:
    def test_values(self):
        pts = shannon_bound([0.0, 0.5, 1.0])
        assert [p.distortion for p in pts] == pytest.approx([1.0, 0.5, 0.25], rel=1e-12)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            shannon_bound([-0.1])

    def test_baselines_dominate_bound(self):
        steps = np.geomspace(0.05, 30.0, 30)
        for p in ecsq_curve(steps) + ecusq_curve(steps):
            assert p.distortion >= 2.0 ** (-2.0 * p.rate) - 1e-12

    def test_designed_codes_dominate_bound(self):
        from cpcodes.design import DesignConfig, design_common_composition
        from cpcodes.order_stats import gaussian_order_stats

        table = gaussian_order_stats(7)
        for j, parts in ((1, (3, 2, 2)), (3, (2, 3, 2))):
            cfg = DesignConfig(J=j, variant=VARIANT_I, sample_count=20_000, rng_seed=j)
            res = design_common_composition(Composition(parts), cfg, table)
            m = empirical_distortion(res.code, 20_000, seed=50 + j)
            rate = rate_variable(res.code, m.probs)
            assert m.distortion >= 2.0 ** (-2.0 * rate) - 3.0 * m.stderr


class TestParetoFilter:
    def test_single_point(self):
        p = RDPoint("x", 1, 1, 1.0, 0.5)
        assert pareto_filter([p]) == [p]

    def test_equal_rate_keeps_lower(self):
        a = RDPoint("a", 1, 1, 1.0, 0.5)
        b = RDPoint("b", 1, 1, 1.0, 0.4)
        assert pareto_filter([a, b]) == [b]

    def test_output_monotone(self):
        rng = np.random.default_rng(10)
        pts = [
            RDPoint("r", 1, 1, float(r), float(d))
            for r, d in zip(rng.uniform(0, 3, 200), rng.uniform(0.01, 1, 200))
        ]
        out = pareto_filter(pts)
        rates = [p.rate for p in out]
        dists = [p.distortion for p in out]
        assert rates == sorted(rates)
        assert all(a > b for a, b in zip(dists, dists[1:]))

    @settings(deadline=None, max_examples=30)
    @given(st.permutations(list(range(12))), st.randoms())
    def test_order_invariance(self, perm, rnd):
        rng = np.random.default_rng(11)
        pts = [
            RDPoint("r", 1, 1, float(r), float(d))
            for r, d in zip(rng.uniform(0, 2, 12), rng.uniform(0.1, 1, 12))
        ]
        shuffled = [pts[i] for i in perm]
        assert pareto_filter(shuffled) == pareto_filter(pts)


class TestCsv:
    def test_header_and_shape(self):
        text = rd_points_to_csv([RDPoint("pc", 7, 1, 1.5, 0.25, 0.001, 3, 1000)])
        lines = text.splitlines()
        assert lines[0] == "method,n,J,rate_bits,distortion,stderr,seed,samples"
        assert lines[1] == "pc,7,1,1.5,0.25,0.001,3,1000"

    def test_floats_roundtrip(self):
        p = RDPoint("pc", 7, 1, 1.1020350739523033, 0.3845407, 1e-4, 0, 10)
        line = rd_points_to_csv([p]).splitlines()[1].split(",")
        assert float(line[3]) == p.rate
        assert float(line[4]) == p.distortion


class TestEntropy:
    def test_uniform(self):
        assert entropy_bits([0.25] * 4) == pytest.approx(2.0, rel=1e-12)

    def test_zero_mass_ignored(self):
        assert entropy_bits([0.5, 0.5, 0.0]) == pytest.approx(1.0, rel=1e-12)
