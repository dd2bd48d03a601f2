import math
from fractions import Fraction

import numpy as np
import pytest

from cpcodes import design
from cpcodes.codec import VARIANT_I, VARIANT_II, ConcentricCode, InitialCodeword
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
        assert sum(res.probs) == pytest.approx(1.0, abs=0)

    def test_decomposition_identity(self):
        t = gaussian_order_stats(7)
        res = design_common_composition(Composition((2, 3, 2)), small_cfg(2, seed=5), t)
        rng = np.random.default_rng(99)
        direct, decomposed = distortion_decomposition(res.code, rng.standard_normal((20_000, 7)))
        assert abs(direct - decomposed) <= 1e-9 * abs(direct)

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
        draw = design._draw_training

        def shared_start(cfg, n, sigma):
            x, rows = draw(cfg, n, sigma)
            return x, np.full_like(rows, rows[0])

        monkeypatch.setattr(design, "_draw_training", shared_start)
        c = Composition((2, 2, 2))
        cfg = small_cfg(3, variant, seed=9)
        t = gaussian_order_stats(6)
        if designer == "common":
            res = design_common_composition(c, cfg, t)
        else:
            res = lloyd_general([c, c, c], cfg, t)
        assert res.empty_cell_events >= 1
        assert len(set(res.code.subcodes)) == 3


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
