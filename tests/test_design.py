import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cpcodes import design
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
from cpcodes.design import (
    DesignConfig,
    distortion_decomposition,
    design_common_composition,
    estimate_zeta_split,
    lloyd_general,
    optimal_levels_single,
    pc_distortion_exact,
    swap_composition,
    swap_improvement_test,
    swap_levels,
    swap_pair_exact,
)
from cpcodes.evaluation import empirical_distortion
from cpcodes.order_stats import folded_order_stats, gaussian_order_stats
from cpcodes.streams import CHUNK_ROWS, substream


def small_cfg(J, variant=VARIANT_I, seed=0, samples=40_000):
    return DesignConfig(J=J, variant=variant, sample_count=samples, rng_seed=seed)


class TestOptimalLevels:
    def test_single_group_is_zero(self):
        t = gaussian_order_stats(5)
        cw = optimal_levels_single(Composition((5,)), t, VARIANT_I)
        assert cw.levels[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_levels_n2(self):
        t = gaussian_order_stats(2)
        cw = optimal_levels_single(Composition((1, 1)), t, VARIANT_I)
        assert cw.levels[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-9)
        assert cw.levels[1] == pytest.approx(-1.0 / math.sqrt(math.pi), abs=1e-9)

    def test_variant2_single_group_is_mean_magnitude(self):
        t = folded_order_stats(6)
        cw = optimal_levels_single(Composition((6,)), t, VARIANT_II)
        assert cw.levels[0] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)

    def test_group_means(self):
        t = gaussian_order_stats(5)
        cw = optimal_levels_single(Composition((2, 3)), t, VARIANT_I)
        assert cw.levels[0] == pytest.approx(float(t.mean_xi[:2].mean()), abs=0)
        assert cw.levels[1] == pytest.approx(float(t.mean_xi[2:].mean()), abs=0)


class TestExactDistortion:
    def test_origin_codeword(self):
        t = gaussian_order_stats(4)
        cw = InitialCodeword(Composition((4,)), (0.0,), VARIANT_I)
        assert pc_distortion_exact(cw, t) == pytest.approx(1.0, abs=1e-9)

    def test_n2_optimal(self):
        t = gaussian_order_stats(2)
        cw = optimal_levels_single(Composition((1, 1)), t, VARIANT_I)
        assert pc_distortion_exact(cw, t) == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-9)

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    @pytest.mark.parametrize("parts", [(3, 2, 2), (1, 6), (2, 2, 2, 1)])
    def test_energy_shortcut_at_optimum(self, parts, variant):
        # at the optimal levels, D = sigma^2 - (1/n) sum n_i mu_i^2
        table = (folded_order_stats if variant == VARIANT_II else gaussian_order_stats)(7)
        cw = optimal_levels_single(Composition(parts), table, variant)
        shortcut = 1.0 - sum(
            p * mu * mu for p, mu in zip(parts, cw.levels)
        ) / 7.0
        assert pc_distortion_exact(cw, table) == pytest.approx(shortcut, rel=1e-12)

    def test_matches_monte_carlo(self):
        table = gaussian_order_stats(6)
        cw = optimal_levels_single(Composition((2, 2, 2)), table, VARIANT_I)
        measured = empirical_distortion(ConcentricCode((cw,)), 200_000, seed=9)
        exact = pc_distortion_exact(cw, table)
        assert abs(measured.distortion - exact) <= 3.0 * measured.stderr


class TestCommonCompositionDesign:
    def test_j1_matches_closed_form(self):
        t = gaussian_order_stats(6)
        res = design_common_composition(Composition((2, 2, 2)), small_cfg(1, samples=500_000), t)
        exact = optimal_levels_single(Composition((2, 2, 2)), t, VARIANT_I)
        # sample means of group sums; se of each level is about sigma/sqrt(N n_i)
        for got, want in zip(res.code.subcodes[0].levels, exact.levels):
            assert abs(got - want) <= 3.0 * 1.0 / math.sqrt(500_000 * 2)

    def test_monotone_history(self):
        t = gaussian_order_stats(7)
        res = design_common_composition(Composition((3, 2, 2)), small_cfg(3, seed=2), t)
        hist = res.distortion_history
        assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))
        assert res.converged

    def test_reduced_points_shape(self):
        t = gaussian_order_stats(7)
        res = design_common_composition(Composition((3, 2, 2)), small_cfg(2, seed=3), t)
        assert res.reduced is not None
        assert res.reduced.points.shape == (2, 3)
        assert res.reduced.K == 3

    def test_probs_sum_to_one(self):
        t = gaussian_order_stats(5)
        res = design_common_composition(Composition((2, 3)), small_cfg(3, seed=4), t)
        assert sum(res.code.probs) == pytest.approx(1.0, abs=0)

    def test_decomposition_identity(self):
        t = gaussian_order_stats(7)
        res = design_common_composition(Composition((2, 3, 2)), small_cfg(2, seed=5), t)
        rng = np.random.default_rng(99)
        direct, decomposed = distortion_decomposition(res.code, rng.standard_normal((20_000, 7)))
        assert abs(direct - decomposed) <= 1e-9 * abs(direct)

    def test_designer_checks_decomposition(self, monkeypatch):
        """The designer checks the encoder's distortion against the reduced-space
        decomposition: a clean run passes, a distance rule off by 1e-3 raises."""
        args = (Composition((2, 3, 2)), small_cfg(2, seed=5), gaussian_order_stats(7))
        assert not design_common_composition(*args).merged_levels
        exact = design.sorted_distances
        monkeypatch.setattr(design, "sorted_distances",
                            lambda sT, code, out=None: exact(sT, code, out) + 1e-3)
        with pytest.raises(AssertionError, match="distortion decomposition mismatch"):
            design_common_composition(*args)

    def test_variant2_levels_nonnegative(self):
        t = folded_order_stats(6)
        res = design_common_composition(
            Composition((2, 2, 2)), small_cfg(2, VARIANT_II, seed=6), t
        )
        for cw in res.code.subcodes:
            assert cw.levels[-1] >= 0.0


class TestEmptyCellReseed:
    @pytest.mark.parametrize("designer", ["common", "general"])
    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_shared_start_is_reseeded(self, monkeypatch, designer, variant):
        # every sphere starts at one training row, so all but one cell empty at once
        draw = design._training_blocks

        def shared_start(*args):
            rows = draw(*args)
            return np.full_like(rows, rows[0])

        monkeypatch.setattr(design, "_training_blocks", shared_start)
        c = Composition((2, 2, 2))
        cfg = small_cfg(3, variant, seed=9)
        t = gaussian_order_stats(6)
        if designer == "common":
            res = design_common_composition(c, cfg, t)
        else:
            res = lloyd_general([c, c, c], cfg, t)
        assert res.empty_cell_events >= 1
        assert len(set(res.code.subcodes)) == 3


class TestCellMeans:
    def test_bit_identical_to_masked_mean(self):
        """Each cell mean rounds as ``points[assign == j].mean(axis=0)``, for
        one column (pairwise) and for two to sixteen (row by row), whether
        the rows are gathered block by block (``_cell_means``) or summed by
        a weighted bincount over coordinate-major points
        (``_shared_cell_means``)."""
        rng = np.random.default_rng(12)
        for _ in range(40):
            K = int(rng.integers(1, 17))
            m = int(rng.choice([int(rng.integers(2, 500)), int(rng.integers(500, 200_001))]))
            J = int(rng.integers(1, 5))
            cells = [rng.standard_normal((m, K)) * rng.uniform(0.1, 10.0) for _ in range(J)]
            assign = rng.integers(0, J, size=m).astype(np.intp)
            assign[:J] = np.arange(J)  # no empty cell
            buf = np.full((CHUNK_ROWS + 1) * K, np.nan)
            means, empty = design._cell_means(cells, assign, np.zeros(m), buf)
            shared, shared_empty = design._shared_cell_means(
                np.ascontiguousarray(cells[0].T), assign, np.zeros(m), J)
            assert empty == shared_empty == 0
            for j, (points, mean) in enumerate(zip(cells, means)):
                want = points.take(np.flatnonzero(assign == j), axis=0).mean(axis=0)
                assert [float(v).hex() for v in mean] == [float(v).hex() for v in want], (K, m)
                if j == 0:
                    continue
                want = cells[0].take(np.flatnonzero(assign == j), axis=0).mean(axis=0)
                assert [float(v).hex() for v in shared[j]] == [float(v).hex() for v in want], (K, m)

    def test_empty_cells_reseed_at_worst_rows(self):
        """Both updates put the empty cells, in order, at the worst and the
        next worst row by ``mind``."""
        m, K = CHUNK_ROWS + 5, 3
        points = np.random.default_rng(3).standard_normal((m, K))
        assign = np.zeros(m, dtype=np.intp)
        assign[::2] = 2
        mind = np.arange(m, dtype=float)
        mind[7], mind[11] = 2.0 * m, 3.0 * m
        means, empty = design._cell_means([points] * 4, assign, mind, np.empty((CHUNK_ROWS + 1) * K))
        shared, shared_empty = design._shared_cell_means(np.ascontiguousarray(points.T), assign, mind, 4)
        assert empty == shared_empty == 2
        for got in (means, shared):
            assert np.array_equal(got[1], points[11]) and np.array_equal(got[3], points[7])


def _whole_set_rounds(cells, starts, distances, n, energy=(0.0, 0.0)):
    """Lloyd rounds as one whole-set computation: the ``(J, m)`` distances
    at once, masked cell means, empty cells reseeded at the worst rows.
    Returns each round's ``(assign, means)`` and the history."""
    means, history, rounds = starts, [], []
    for _ in range(design.LLOYD_MAX_ITERS):
        assign, mind = nearest_subcode(distances(means))
        np.maximum(mind, 0.0, out=mind)
        history.append((float(mind.mean()) + energy[0] - energy[1]) / n)
        worst = iter(np.argsort(-mind))
        means = [points[assign == j].mean(axis=0) if (assign == j).any()
                 else points[int(next(worst))] for j, points in enumerate(cells)]
        rounds.append((assign, means))
        if design._settled(history):
            break
    return rounds, history


class TestBlockedRounds:
    """Rounds scored ``CHUNK_ROWS`` rows at a time, with cell sums carried
    block by block (general) or by bincount (common), give the bits of the
    whole-set rounds: history, every round's assignment and means."""

    m = 2 * CHUNK_ROWS + 1811  # not a multiple of the block

    @staticmethod
    def _recorded(monkeypatch, shared_start, run):
        rounds = []
        lloyd = design._lloyd

        def recording(means, distances, update, *args):
            def recorded(assign, mind):
                out = update(assign, mind)
                rounds.append((assign.copy(), [np.array(v) for v in out[0]]))
                return out

            return lloyd(means, distances, recorded, *args)

        monkeypatch.setattr(design, "_lloyd", recording)
        if shared_start:
            draw = design._training_blocks
            monkeypatch.setattr(design, "_training_blocks",
                                lambda *args: np.full(args[0].J, draw(*args)[0]))
        return run(), rounds

    @staticmethod
    def _training(cfg, n, sigma, shared_start):
        rng = substream(cfg.rng_seed, "design")
        s = sort_by_variant(rng.standard_normal((cfg.sample_count, n)) * sigma, cfg.variant)
        rows = rng.choice(cfg.sample_count, size=cfg.J, replace=False)
        return s, np.full_like(rows, rows[0]) if shared_start else rows

    @staticmethod
    def _assert_same(got, history, want, want_history):
        assert [h.hex() for h in history] == [h.hex() for h in want_history]
        assert len(got) == len(want)
        for (assign, means), (want_assign, want_means) in zip(got, want):
            assert np.array_equal(assign, want_assign)
            assert [[float(v).hex() for v in mean] for mean in means] == [
                [float(v).hex() for v in mean] for mean in want_means]

    @pytest.mark.parametrize("parts, variant, shared_start", [
        ((2, 2, 2), VARIANT_I, True),  # every sphere starts at one row: two empty cells
        ((6,), VARIANT_II, False),  # one-column cells
        ((1, 2, 3), VARIANT_II, False),
    ])
    def test_common_rounds_equal_whole_set(self, monkeypatch, parts, variant, shared_start):
        c, sigma = Composition(parts), 1.3
        cfg = DesignConfig(J=3, variant=variant, sample_count=self.m, rng_seed=21)
        res, got = self._recorded(monkeypatch, shared_start,
                                  lambda: design_common_composition(c, cfg, gaussian_order_stats(6, sigma)))
        s, rows = self._training(cfg, 6, sigma, shared_start)
        proj = np.add.reduceat(s, [0, *np.cumsum(parts)[:-1]], axis=1) / np.sqrt(np.array(parts, float))
        p2 = np.einsum("ij,ij->i", proj, proj)
        projT = np.ascontiguousarray(proj.T)

        def distances(means):
            centroids = np.stack(means)
            d = np.matmul(centroids, projT) * -2.0 + p2
            return d + np.einsum("ij,ij->i", centroids, centroids)[:, None]

        energy = (float(np.einsum("ij,ij->i", s, s).mean()), float(p2.mean()))
        want, history = _whole_set_rounds([proj] * 3, list(proj[rows]), distances, 6, energy)
        self._assert_same(got, res.distortion_history, want, history)
        assert (res.empty_cell_events > 0) == shared_start

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_general_rounds_equal_whole_set(self, monkeypatch, variant):
        # spheres 0 and 1 start at one row with one composition, so one cell
        # is empty; sphere 2's one-level composition has one-column cells
        comps = [Composition((2, 4)), Composition((2, 4)), Composition((6,))]
        sigma = 0.8
        cfg = DesignConfig(J=3, variant=variant, sample_count=self.m, rng_seed=22)
        res, got = self._recorded(monkeypatch, True,
                                  lambda: lloyd_general(comps, cfg, gaussian_order_stats(6, sigma)))
        s, rows = self._training(cfg, 6, sigma, True)
        x2 = np.einsum("ij,ij->i", s, s)
        cells = [np.add.reduceat(s, [0, *np.cumsum(c.parts)[:-1]], axis=1) for c in comps]
        parts = [np.array(c.parts, float) for c in comps]

        def distances(means):
            d = np.empty((3, self.m))
            for j, (points, mean, p) in enumerate(zip(cells, means, parts)):
                mu = mean / p
                d[j] = (points @ mu) * -2.0 + x2 + float(p @ (mu * mu))
            return d

        want, history = _whole_set_rounds(cells, [g[r] for g, r in zip(cells, rows)], distances, 6)
        self._assert_same(got, res.distortion_history, want, history)
        assert res.empty_cell_events > 0


class TestLloydGeneral:
    def test_j1_converges_to_group_means(self):
        t = gaussian_order_stats(5)
        cfg = small_cfg(1, seed=7, samples=200_000)
        res = lloyd_general([Composition((2, 3))], cfg, t)
        exact = optimal_levels_single(Composition((2, 3)), t, VARIANT_I)
        for got, want in zip(res.code.subcodes[0].levels, exact.levels):
            assert abs(got - want) <= 4.0 / math.sqrt(200_000)

    def test_monotone_history(self):
        t = gaussian_order_stats(6)
        res = lloyd_general(
            [Composition((2, 4)), Composition((1, 2, 3)), Composition((6,))],
            small_cfg(3, seed=8),
            t,
        )
        hist = res.distortion_history
        assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))

    def test_matches_common_design_same_seed(self):
        # identical compositions and paired seeds walk the same trajectory
        t = gaussian_order_stats(7)
        c = Composition((3, 2, 2))
        cfg = small_cfg(3, seed=9, samples=100_000)
        reduced = design_common_composition(c, cfg, t)
        general = lloyd_general([c, c, c], cfg, t)
        se = 2.0 / math.sqrt(cfg.sample_count)
        assert abs(reduced.distortion - general.distortion) <= 3.0 * se

    def test_mismatched_dimension_rejected(self):
        t = gaussian_order_stats(6)
        with pytest.raises(ValueError):
            lloyd_general([Composition((2, 4)), Composition((2, 3))], small_cfg(2), t)

    def test_composition_count_must_match_J(self):
        t = gaussian_order_stats(6)
        with pytest.raises(ValueError):
            lloyd_general([Composition((2, 4))], small_cfg(2), t)


class TestSwapComposition:
    def test_example(self):
        assert swap_composition(Composition((3, 1, 2)), 1).parts == (1, 3, 2)

    def test_involution(self):
        c = Composition((2, 3, 1, 1))
        for m in (1, 2, 3):
            assert swap_composition(swap_composition(c, m), m) == c

    def test_equal_parts_noop(self):
        assert swap_composition(Composition((4, 1, 1, 1)), 2).parts == (4, 1, 1, 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            swap_composition(Composition((2, 3)), 2)
        with pytest.raises(ValueError):
            swap_composition(Composition((2, 3)), 0)


class TestSwapLevels:
    def test_gap_and_energy_identities_exact(self):
        for q, r, a, b in [(3, 2, 1.375, 0.5), (3, 2, 0.9, 0.1), (4, 1, 2.25, 0.125)]:
            fa, fb = Fraction(a), Fraction(b)
            ta, tb = swap_pair_exact(q, r, fa, fb)
            assert ta - tb == fa - fb
            assert r * ta * ta + q * tb * tb == q * fa * fa + r * fb * fb

    def test_floats_round_from_exact_values(self):
        c = Composition((3, 2))
        new = swap_levels([(1.375, 0.5)], c, 1)
        ta, tb = swap_pair_exact(3, 2, Fraction(1.375), Fraction(0.5))
        assert new[0] == (float(ta), float(tb))

    def test_equal_parts_identity(self):
        c = Composition((2, 2, 1))
        levels = [(2.0, 1.0, 0.25)]
        assert swap_levels(levels, c, 1) == [(2.0, 1.0, 0.25)]

    def test_untouched_positions(self):
        c = Composition((1, 3, 2, 1))
        levels = [(4.0, 3.0, 2.0, 1.0)]
        new = swap_levels(levels, c, 2)
        assert new[0][0] == 4.0 and new[0][3] == 1.0


class TestSwapImprovement:
    def _omega_codebook(self, rng, J, ratio_needed):
        # equal-ish gaps always satisfy the ratio constraint with margin
        lo = max(min(ratio_needed * 1.05, 0.98), 0.05)
        base = rng.uniform(0.2, 0.5, size=J)
        gaps = rng.uniform(lo, 1.0, size=J)
        return [(float(b + g), float(b)) for b, g in zip(base, gaps)]

    def test_improvement_nonnegative(self):
        c = Composition((3, 2))
        table = folded_order_stats(5)
        cfg = DesignConfig(J=2, variant=VARIANT_II, sample_count=200_000, rng_seed=13)
        plus, minus = estimate_zeta_split(c, 1, 200_000, seed=13)
        rng = np.random.default_rng(77)
        levels = self._omega_codebook(rng, 2, minus / plus)
        report = swap_improvement_test(levels, c, 1, cfg, table)
        assert report.constraint_satisfied
        assert report.d_after <= report.d_before + 3.0 * report.stderr_diff

    def test_equal_parts_no_change(self):
        c = Composition((2, 2, 1))
        table = folded_order_stats(5)
        cfg = DesignConfig(J=2, variant=VARIANT_II, sample_count=50_000, rng_seed=3)
        levels = [(2.0, 1.0, 0.25), (1.5, 0.75, 0.2)]
        report = swap_improvement_test(levels, c, 1, cfg, table)
        assert report.d_after == report.d_before
        assert report.constraint_satisfied

    def test_variant1_rejected(self):
        cfg = DesignConfig(J=2, variant=VARIANT_I, sample_count=50_000)
        with pytest.raises(ValueError):
            swap_improvement_test([(1.0, 0.5)], Composition((3, 2)), 1, cfg, gaussian_order_stats(5))

    def test_zeta_needs_bigger_first_group(self):
        with pytest.raises(ValueError):
            estimate_zeta_split(Composition((2, 3)), 1, 50_000, seed=0)


class TestDesignConfig:
    def test_rejects_small_samples(self):
        with pytest.raises(ValueError):
            DesignConfig(J=1, sample_count=100)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            DesignConfig(J=1, variant=3)


class TestBoundedMemory:
    """The training draw and the finishing pass work ``CHUNK_ROWS`` rows at a
    time and give the bits of the whole-set computation."""

    m = 2 * CHUNK_ROWS + 1811  # past MIN_TRAINING_SAMPLES, not a multiple of the block

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_blocked_draw_equals_one_shot(self, variant):
        comps = [Composition((3, 2, 2)), Composition((1, 6)), Composition((3, 2, 2))]
        cfg = DesignConfig(J=3, variant=variant, sample_count=self.m, rng_seed=5)
        x2, sums, init_rows = design._reduced_training(comps, cfg, 1.7)
        rng = substream(5, "design")
        s = sort_by_variant(rng.standard_normal((self.m, 7)) * 1.7, variant)
        assert np.array_equal(x2, np.einsum("ij,ij->i", s, s))
        assert list(sums) == comps[:2]
        for c, got in sums.items():
            assert np.array_equal(got, np.add.reduceat(s, [0, *np.cumsum(c.parts)[:-1]], axis=1))
        assert np.array_equal(init_rows, rng.choice(self.m, size=3, replace=False))

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_blocked_finishing_pass_equals_whole_set(self, variant):
        """The rows drawn again and scored block by block give the
        distortion and probabilities of the whole sorted set."""
        cfg = DesignConfig(J=3, variant=variant, sample_count=self.m, rng_seed=6)
        parts = [(1, 2, 3)] * 3
        levels = [(1.5, 0.5, 0.25), (0.9, 0.3, 0.0), (0.4, 0.2, 0.1)]
        res = design._lloyd_result(parts, levels, cfg, 1.2, ([1.0], 0, True))
        code = ConcentricCode(tuple(
            InitialCodeword(Composition(p), lv, variant) for p, lv in zip(parts, levels)
        ))
        x = substream(6, "design").standard_normal((self.m, 6)) * 1.2
        sT = np.ascontiguousarray(sort_by_variant(x, variant).T)
        assign, mind = nearest_subcode(sorted_distances(sT, code))
        assert res.code.subcodes == code.subcodes
        assert res.distortion.hex() == (float(mind.mean()) / 6).hex()
        want = np.bincount(assign, minlength=3) / self.m
        assert [p.hex() for p in res.code.probs] == [float(p).hex() for p in want]

    @pytest.mark.parametrize("designer", ["common", "general"])
    def test_design_holds_group_sums_not_rows(self, designer):
        """numpy registers its buffers with tracemalloc.  Per training row the
        rounds hold one energy (the projected one for the common designer),
        the group sums of each distinct composition, and one nearest sphere
        and one distance; beyond that state the peak is scratch of fixed
        size, the same at 200k and at 400k rows, and within the guard's
        estimate."""
        n, J = 16, 3
        if designer == "common":
            comps = [Composition((4, 4, 4, 4))]
            run = lambda cfg: design_common_composition(comps[0], cfg, gaussian_order_stats(n))
        else:
            comps = [Composition((4, 4, 4, 4)), Composition((2, 6, 8)), Composition((8, 8))]
            run = lambda cfg: lloyd_general(comps, cfg, gaussian_order_stats(n))
        floats = 1 + sum(c.num_levels for c in comps) + 2
        run(DesignConfig(J=J, sample_count=10_000))  # imports
        excess = []
        for m in (200_000, 400_000):
            cfg = DesignConfig(J=J, sample_count=m, rng_seed=1)
            tracemalloc.start()
            try:
                run(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= design.training_memory_bytes(comps, cfg), (m, peak)
            excess.append(peak - 8 * m * floats)
        # a per-row temporary of even one byte would add 200 kB
        assert abs(excess[1] - excess[0]) < 50_000, excess
        assert 0 < excess[0] < 2 * CHUNK_ROWS * n * 8, excess

    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    def test_code_from_group_sums_equals_lloyd_general(self, variant):
        """Reduced to energies and group sums as drawn, the rounds give
        lloyd_general's codebook and round count bit for bit."""
        comps = [Composition((1, 2, 3)), Composition((2, 4)), Composition((1, 2, 3))]
        cfg = DesignConfig(J=3, variant=variant, sample_count=self.m, rng_seed=8)
        full = lloyd_general(comps, cfg, gaussian_order_stats(6, 1.3))
        code, iterations = design.lloyd_general_code(comps, cfg, 1.3)
        assert code.probs is None
        assert iterations == full.iterations
        for got, want in zip(code.subcodes, full.code.subcodes):
            assert got.composition == want.composition
            assert [v.hex() for v in got.levels] == [v.hex() for v in want.levels]

    def test_zeta_split_equals_whole_set_formula(self):
        c, m, samples, seed, sigma = Composition((1, 5, 2)), 2, 2 * CHUNK_ROWS + 777, 3, 1.3
        plus, minus = estimate_zeta_split(c, m, samples, seed, sigma)
        x = substream(seed, "zeta").standard_normal((samples, c.n)) * sigma
        eta = sort_by_variant(x, VARIANT_II)
        # q = 5, r = 2 and one position before group m
        zeta = (eta[:, 1:3].sum(axis=1) / 2 - eta[:, 3:6].sum(axis=1) * (2.0 / 3)
                + eta[:, 6:8].sum(axis=1) / 2)
        assert plus.hex() == float(np.maximum(zeta, 0.0).mean()).hex()
        assert minus.hex() == float(np.maximum(-zeta, 0.0).mean()).hex()

    def test_swap_report_equals_whole_set_formula(self):
        c, m = Composition((3, 2, 1)), 1
        cfg = DesignConfig(J=2, variant=VARIANT_II, sample_count=self.m, rng_seed=4)
        levels = [(2.0, 1.0, 0.25), (1.5, 0.6, 0.1)]
        report = swap_improvement_test(levels, c, m, cfg, folded_order_stats(6, 1.2))
        before = ConcentricCode(tuple(InitialCodeword(c, lv, VARIANT_II) for lv in levels))
        after = ConcentricCode(tuple(InitialCodeword(swap_composition(c, m), lv, VARIANT_II)
                                     for lv in swap_levels(levels, c, m)))
        x = substream(4, "swap-eval").standard_normal((self.m, 6)) * 1.2
        sT = np.ascontiguousarray(sort_by_variant(x, VARIANT_II).T)
        d_before = nearest_subcode(sorted_distances(sT, before))[1] / 6
        d_after = nearest_subcode(sorted_distances(sT, after))[1] / 6
        diff = d_after - d_before
        assert report.d_before.hex() == float(d_before.mean()).hex()
        assert report.d_after.hex() == float(d_after.mean()).hex()
        assert report.stderr_diff.hex() == float(diff.std(ddof=1) / math.sqrt(len(diff))).hex()
        zeta_plus, zeta_minus = estimate_zeta_split(c, m, self.m, 4, 1.2)
        assert (report.zeta_plus, report.zeta_minus) == (zeta_plus, zeta_minus)
