import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import chi_cells_mp, monotone, unimodal

from cpcodes import wsc
from cpcodes.codec import VARIANT_I, VARIANT_II
from cpcodes.combinatorics import (
    Composition,
    ResourceLimitError,
    distinct_multinomials,
    enumerate_compositions,
    multinomial_size,
)
from cpcodes.design import DesignConfig, training_memory_bytes
from cpcodes.streams import CHUNK_ROWS
from cpcodes.wsc import (
    LATTICE_SECOND_MOMENTS,
    GainCodebook,
    RateTooHighError,
    RateTooLowError,
    allocate_compositions,
    design_fixed_rate,
    design_variable_rate,
    gain_codebook,
    optimal_rate_split,
    sizes_fixed_rate,
    sizes_variable_rate,
    snr_improvement_db,
    wsc_constants,
)


def chi_mean(n):
    special = pytest.importorskip("scipy.special")
    return math.sqrt(2.0) * math.exp(special.gammaln((n + 1) / 2) - special.gammaln(n / 2))


class TestGainCodebook:
    @pytest.mark.parametrize("n", [2, 7, 25, 60])
    def test_single_cell_is_expected_norm(self, n):
        gc = gain_codebook(1, n)
        assert gc.gains[0] == pytest.approx(chi_mean(n), rel=1e-12)
        assert gc.probs == (1.0,)
        if n >= 7:
            # coarse large-n approximation for the radius
            assert gc.gains[0] == pytest.approx(math.sqrt(n - 0.5), rel=0.01)

    @pytest.mark.parametrize("gains, probs", [((math.nan,), (1.0,)), ((1.0,), (math.nan,)),
                                              ((1.0, math.inf), (0.5, 0.5)),
                                              ((1.0, 2.0), (math.inf, -math.inf))])
    def test_non_finite_entries_rejected(self, gains, probs):
        """A NaN compares False with every bound, so each entry is checked finite."""
        with pytest.raises(ValueError):
            GainCodebook(gains, probs)

    def test_sigma_scales_gains(self):
        a = gain_codebook(3, 10, sigma=1.0)
        b = gain_codebook(3, 10, sigma=2.5)
        assert np.allclose(np.asarray(b.gains), 2.5 * np.asarray(a.gains), rtol=1e-10)
        assert a.probs == b.probs

    @pytest.mark.parametrize("J", [2, 3, 4, 8])
    def test_fixed_point_conditions(self, J):
        n = 25
        gc = gain_codebook(J, n)
        assert sum(gc.probs) == pytest.approx(1.0, abs=1e-12)
        # nearest-neighbor condition: boundaries at midpoints reproduce the cells
        gains = np.asarray(gc.gains)
        bounds = np.concatenate(([0.0], (gains[:-1] + gains[1:]) / 2.0, [np.inf]))
        stats = pytest.importorskip("scipy.stats")
        quad = pytest.importorskip("scipy.integrate").quad
        masses = np.diff(stats.chi.cdf(bounds, n))
        assert np.allclose(masses, gc.probs, atol=1e-9)
        # centroid condition against direct numerical integration
        for j in range(J):
            lo, hi = bounds[j], bounds[j + 1]
            num = quad(lambda r: r * stats.chi.pdf(r, n), lo, min(hi, 60.0), limit=200)[0]
            assert num / gc.probs[j] == pytest.approx(gc.gains[j], abs=1e-6)

    @pytest.mark.parametrize("n, J", [(1, 64), (2, 64), (41, 64)])
    def test_midpoint_conditions_at_40_digits(self, n, J):
        """The midpoint conditions, evaluated by mpmath at 40 digits at the
        returned gains, hold within 1e-13 of the largest gain: the top
        cells' masses are differences of upper tails, so they keep their
        relative precision (differences of lower tails alone leave 5.9e-13,
        1.9e-13 and 9.6e-14 here)."""
        mp = pytest.importorskip("mpmath")
        gc = gain_codebook(J, n)
        with mp.workdps(40):
            mean, masses = chi_cells_mp(gc.gains, (n, n + 1))
            worst = max(abs(mean * f1 / f0 - g) for g, (f0, f1) in zip(gc.gains, masses))
        assert worst <= 1e-13 * gc.gains[-1]

    @pytest.mark.parametrize("J, n, seconds", [(40, 2, 0.1), (32, 16, 0.05)])
    def test_newton_solve_is_fast(self, J, n, seconds):
        """A Lloyd-Max loop takes thousands of rounds here; Newton a handful
        of steps, so the best of three calls is well inside the bound."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            gc = gain_codebook(J, n)
            times.append(time.perf_counter() - start)
        assert len(gc.gains) == J
        assert min(times) < seconds, times

    def test_unconverged_solve_raises_with_its_residual(self, monkeypatch):
        monkeypatch.setattr(wsc, "_NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"1 Newton steps \(midpoint residual \d"):
            gain_codebook(8, 16)

    def test_montecarlo_cells(self):
        gc = gain_codebook(2, 25)
        rng = np.random.default_rng(5)
        g = np.linalg.norm(rng.standard_normal((200_000, 25)), axis=1)
        boundary = (gc.gains[0] + gc.gains[1]) / 2
        assert g[g < boundary].mean() == pytest.approx(gc.gains[0], abs=5e-3)
        assert (g < boundary).mean() == pytest.approx(gc.probs[0], abs=5e-3)


class TestConstants:
    def test_cs_over_c_factorization(self):
        special = pytest.importorskip("scipy.special")
        for n in (2, 7, 25, 100):
            c = wsc_constants(n, 1.0 / 12.0, sigma=1.3)
            assert c.c_s / c.c == pytest.approx(
                2.0 * 1.3**2 * math.exp(special.digamma(n / 2)), rel=1e-12
            )

    def test_cg_n2_two_ways(self):
        c = wsc_constants(2, 1.0 / 12.0)
        direct = 3.0 * math.gamma(2.0 / 3.0) ** 3 / (16.0 * math.gamma(1.0))
        assert c.c_g == pytest.approx(direct, rel=1e-12)

    def test_large_n_does_not_overflow(self):
        c = wsc_constants(200, LATTICE_SECOND_MOMENTS["lambda24"])
        assert math.isfinite(c.c) and math.isfinite(c.c_s) and math.isfinite(c.c_g)

    def test_lambda24_table_value(self):
        assert LATTICE_SECOND_MOMENTS["lambda24"] == pytest.approx(0.065771, abs=0)


class TestRateSplit:
    def test_sum_identity_exact(self):
        c = wsc_constants(25, LATTICE_SECOND_MOMENTS["lambda24"])
        for R in (1.0, 2.5, 3.0, 7.0):
            split = optimal_rate_split(R, c)
            assert split.shape_rate + split.gain_rate == R  # enforced algebraically

    def test_log_term_vanishes_when_balanced(self):
        # constants tuned so c_s/c_g = n-1 make the split exactly proportional
        n = 10
        base = wsc_constants(n, 1.0 / 12.0)
        scaled = type(base)(
            n=n, g_lambda=base.g_lambda, sigma=base.sigma,
            c=base.c, c_s=(n - 1.0) * base.c_g, c_g=base.c_g,
        )
        split = optimal_rate_split(2.0, scaled)
        assert split.shape_rate == pytest.approx(2.0 * (n - 1) / n, rel=1e-12)
        assert split.gain_rate == pytest.approx(2.0 / n, rel=1e-12)

    def test_rate_too_low(self):
        # at n=2 the log term dominates small rates and drives the gain share negative
        c = wsc_constants(2, 1.0 / 12.0)
        with pytest.raises(RateTooLowError):
            optimal_rate_split(0.1, c)

    def test_regression_value_n25(self):
        # locked reference computed from the closed-form split at first build
        c = wsc_constants(25, LATTICE_SECOND_MOMENTS["lambda24"])
        split = optimal_rate_split(3.0, c)
        assert split.shape_rate == pytest.approx(2.8762795337302074, abs=1e-12)

    def test_combined_decay_constant(self):
        # plugging the optimal split back in reproduces the product-form constant
        for n, R in [(4, 3.0), (25, 3.0), (25, 6.0), (60, 4.0)]:
            c = wsc_constants(n, LATTICE_SECOND_MOMENTS["lambda24"])
            split = optimal_rate_split(R, c)
            d = c.c_s * 2.0 ** (-2.0 * n / (n - 1.0) * split.shape_rate) + c.c_g * 2.0 ** (
                -2.0 * n * split.gain_rate
            )
            target = n / (n - 1.0) ** (1.0 - 1.0 / n) * c.c_g ** (1.0 / n) * c.c_s ** (
                1.0 - 1.0 / n
            )
            assert d * 2.0 ** (2.0 * R) == pytest.approx(target, rel=1e-9)


class TestSizes:
    def test_variable_rate_single_gain(self):
        gc = gain_codebook(1, 25)
        c = wsc_constants(25, LATTICE_SECOND_MOMENTS["lambda24"])
        split = optimal_rate_split(2.0, c)
        sizes = sizes_variable_rate(split, gc, 25)
        assert sizes[0] == pytest.approx(2.0 ** (25 * split.shape_rate), rel=1e-12)

    def test_variable_rate_ratio_law(self):
        gc = gain_codebook(3, 25)
        c = wsc_constants(25, LATTICE_SECOND_MOMENTS["lambda24"])
        split = optimal_rate_split(3.0, c)
        sizes = sizes_variable_rate(split, gc, 25)
        for j in range(3):
            for k in range(3):
                assert sizes[j] / sizes[k] == pytest.approx(
                    (gc.gains[j] / gc.gains[k]) ** 24, rel=1e-9
                )

    def test_variable_rate_budget_constraint(self):
        # weighted log sizes meet the shape budget, including on random codebooks
        rng = np.random.default_rng(17)
        c = wsc_constants(25, LATTICE_SECOND_MOMENTS["lambda24"])
        split = optimal_rate_split(3.0, c)
        for _ in range(20):
            J = int(rng.integers(1, 6))
            gains = np.sort(rng.uniform(2.0, 9.0, size=J))
            while np.any(np.diff(gains) <= 0):
                gains = np.sort(rng.uniform(2.0, 9.0, size=J))
            p = rng.dirichlet(np.ones(J))
            gc = GainCodebook(tuple(gains), tuple(p / p.sum()))
            sizes = sizes_variable_rate(split, gc, 25)
            resid = float(np.asarray(gc.probs) @ np.log2(sizes)) - 25 * split.shape_rate
            assert abs(resid) < 1e-9

    def test_fixed_rate_single(self):
        gc = gain_codebook(1, 7)
        sizes = sizes_fixed_rate(1.5, gc, 7)
        assert sizes[0] == pytest.approx(2.0 ** (7 * 1.5), rel=1e-12)

    def test_fixed_rate_symmetry(self):
        gc = GainCodebook((2.0, 4.0, 8.0), (1 / 3, 1 / 3, 1 / 3))
        equal = GainCodebook((3.0, 3.0 + 1e-9, 3.0 + 2e-9), (1 / 3, 1 / 3, 1 / 3))
        sizes = sizes_fixed_rate(1.0, equal, 7)
        assert np.allclose(sizes, sizes[0], rtol=1e-6)
        total = sizes_fixed_rate(1.0, gc, 7).sum()
        assert total == pytest.approx(2.0**7, rel=1e-9)

    def test_fixed_rate_total(self):
        gc = gain_codebook(4, 25)
        assert sizes_fixed_rate(2.0, gc, 25).sum() == pytest.approx(2.0**50, rel=1e-9)

    @pytest.mark.parametrize("R", [63.99, 64.0, 1e6])
    def test_fixed_rate_overflow_is_infeasible(self, R):
        """2**(16 R) overflows a double from R = 64 on; at 63.99 it does
        not, but its product with a cell weight above 1.12 does."""
        with pytest.raises(RateTooHighError, match=f"rate {R} bits/sample is too high"):
            sizes_fixed_rate(R, gain_codebook(2, 16), 16)

    def test_variable_rate_overflow_is_infeasible(self):
        split = optimal_rate_split(100.0, wsc_constants(16, LATTICE_SECOND_MOMENTS["scalar"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RateTooHighError, match="rate 100.0 bits/sample is too high"):
                sizes_variable_rate(split, gain_codebook(2, 16), 16)


class TestSnrImprovement:
    def test_locked_value_n5(self):
        # independent digamma: psi(5/2) = -gamma - 2 ln 2 + 2 + 2/3
        gamma = 0.5772156649015329
        psi_5_2 = -gamma - 2.0 * math.log(2.0) + 2.0 + 2.0 / 3.0
        oracle = -10.0 * (1.0 - 0.2) * math.log10(2.0 * math.exp(psi_5_2) / 5.0)
        assert snr_improvement_db(5) == pytest.approx(oracle, abs=1e-12)
        assert snr_improvement_db(5) == pytest.approx(0.7405, abs=1e-3)
        assert snr_improvement_db(5) < 0.8

    def test_positive_and_decreasing(self):
        values = [snr_improvement_db(n) for n in range(5, 51)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_positive_up_to_200(self):
        assert all(snr_improvement_db(n) > 0 for n in range(2, 201))

    def test_limit_vanishes(self):
        assert snr_improvement_db(500) < 0.01


class TestAllocateCompositions:
    def test_target_210_unfiltered(self):
        got = allocate_compositions(7, [210.0], VARIANT_I, "none")
        assert got[0].parts == (3, 2, 2)

    def test_trivial_targets(self):
        assert allocate_compositions(7, [1.0], VARIANT_I, "none")[0].parts == (7,)
        assert allocate_compositions(7, [5040.0], VARIANT_I, "none")[0].parts == (
            1, 1, 1, 1, 1, 1, 1,
        )

    def test_variant2_counts_sign_factor(self):
        # target including the 2^n factor lands on the same multiplicities
        got = allocate_compositions(7, [210.0 * 2**7], VARIANT_II)
        assert tuple(sorted(got[0].parts, reverse=True)) == (3, 2, 2)

    @pytest.mark.parametrize("filt", [None, "none", "variant2_monotone", "variant1_unimodal"])
    @pytest.mark.parametrize("variant", [VARIANT_I, VARIANT_II])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_filtered_pool(self, n, variant, filt):
        """Each pick is the brute-force one over every composition the filter
        keeps ("none" keeps the descending ones), at every size and every
        geometric midpoint between consecutive sizes."""
        keep = {
            None: unimodal if variant == VARIANT_I else monotone,
            "none": lambda parts: monotone(parts[::-1]),
            "variant2_monotone": monotone,
            "variant1_unimodal": unimodal,
        }[filt]
        sign_bits = n if variant == VARIANT_II else 0
        pool = [
            (math.log2(multinomial_size(c.parts)) + sign_bits, c.num_levels, c.parts)
            for c in enumerate_compositions(n)
            if keep(c.parts)
        ]
        sizes = [size * 2.0**sign_bits for size in distinct_multinomials(n)]
        targets = sizes + [math.sqrt(a * b) for a, b in zip(sizes, sizes[1:])]
        got = allocate_compositions(n, targets, variant, filt)
        for target, comp in zip(targets, got):
            goal = math.log2(target)
            best = min(pool, key=lambda item: (abs(item[0] - goal), item[1], item[2]))
            assert comp.parts == best[2], target

    def test_unknown_filter(self):
        with pytest.raises(ValueError, match="'none', 'variant2_monotone', 'variant1_unimodal'"):
            allocate_compositions(4, [2.0], VARIANT_I, "bogus")

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            allocate_compositions(5, [0.0], VARIANT_I)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            allocate_compositions(n, [2.0], VARIANT_I)

    def test_memory_independent_of_partition_count(self):
        """Only each target's best so far is held while the 37,338 partitions
        of 40 are walked, not a candidate per partition."""
        allocate_compositions(8, [2.0], VARIANT_I)  # imports
        tracemalloc.start()
        try:
            got = allocate_compositions(40, [1e3, 1e20, 1e40], VARIANT_I)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == 3
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("variant, filt", [(VARIANT_I, None), (VARIANT_II, None), (VARIANT_I, "none")])
    def test_resource_guard(self, monkeypatch, variant, filt):
        # n = 71 has 4,697,205 partitions, more than 2**22: refused before any is made
        def refuse(n):
            raise AssertionError("enumeration started")

        monkeypatch.setattr("cpcodes.wsc.partitions", refuse)
        with pytest.raises(ResourceLimitError):
            allocate_compositions(71, [10.0], variant, filt)


class TestEndToEndDesigns:
    def test_fixed_rate_j1_is_single_code_search(self):
        cfg = DesignConfig(J=1, variant=VARIANT_I, sample_count=20_000, rng_seed=0)
        res = design_fixed_rate(7, 1.0, cfg)
        assert res.code.J == 1
        # J=1 target is 2^(nR); the chosen composition has the closest size
        assert abs(math.log2(res.code.sizes[0]) - 7.0) <= 1.0

    def test_variable_rate_reports(self):
        cfg = DesignConfig(J=2, variant=VARIANT_I, sample_count=20_000, rng_seed=1)
        res = design_variable_rate(7, 1.2, cfg)
        report = res.report
        assert set(report) >= {
            "inputs", "gains", "probs", "M_targets", "chosen_compositions",
            "achieved_rate", "empirical_D", "seed",
        }
        assert len(report["chosen_compositions"]) == 2
        assert report["achieved_rate"] == res.rate

    def test_fixed_rate_reasonable_rate(self):
        cfg = DesignConfig(J=3, variant=VARIANT_I, sample_count=20_000, rng_seed=2)
        res = design_fixed_rate(7, 1.3, cfg)
        assert abs(res.rate - 1.3) < 0.5
        assert 0 < res.distortion < 1.0

    def test_rate_too_low_propagates(self):
        cfg = DesignConfig(J=2, variant=VARIANT_I, sample_count=20_000, rng_seed=3)
        with pytest.raises(RateTooLowError):
            design_variable_rate(7, 0.01, cfg)


class TestBoundedMemory:
    @pytest.mark.parametrize("J, variant, rate", [(3, VARIANT_II, 1.75), (1, VARIANT_II, 1.0)])
    def test_design_holds_group_sums_not_rows(self, J, variant, rate):
        """numpy registers its buffers with tracemalloc.  Per training row the
        rounds hold one energy, the group sums of each distinct composition,
        and one nearest sphere and one distance, one-level compositions
        included.  Beyond that state the peak is scratch of fixed size, the
        same at 200k and at 400k rows, and within the guard's estimate."""
        n = 16
        design_fixed_rate(n, rate, DesignConfig(J=J, variant=variant, sample_count=10_000))  # imports
        excess = []
        for m in (200_000, 400_000):
            cfg = DesignConfig(J=J, variant=variant, sample_count=m)
            tracemalloc.start()
            try:
                res = design_fixed_rate(n, rate, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            comps = [Composition(tuple(c)) for c in res.report["chosen_compositions"]]
            assert peak <= training_memory_bytes(comps, cfg), (m, peak)
            distinct = set(comps)
            state = 8 * m * (1 + sum(c.num_levels for c in distinct) + 2)
            excess.append(peak - state)
        # a per-row temporary of even one byte would add 200 kB
        assert abs(excess[1] - excess[0]) < 50_000, excess
        assert 0 < excess[0] < 2 * CHUNK_ROWS * n * 8, excess
