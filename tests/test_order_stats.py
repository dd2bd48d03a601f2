import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_golden_designs import _dynamic_openblas

from cpcodes import cephes, order_stats
from cpcodes.combinatorics import Composition
from cpcodes.order_stats import (
    _unit_table,
    folded_order_stats,
    gaussian_order_stats,
    grouped_projection,
)

TOL = 1e-10


class TestGaussianMoments:
    def test_n1(self):
        t = gaussian_order_stats(1)
        assert t.mean_xi == pytest.approx([0.0], abs=TOL)
        assert t.second_xi == pytest.approx([1.0], abs=1e-9)

    def test_n2_closed_form(self):
        # expected maximum of two standard normals is 1/sqrt(pi)
        t = gaussian_order_stats(2)
        assert t.mean_xi[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-10)
        assert t.mean_xi[1] == pytest.approx(-1.0 / math.sqrt(math.pi), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24])
    def test_sums(self, n):
        t = gaussian_order_stats(n)
        assert abs(t.mean_xi.sum()) < 1e-9
        assert t.second_xi.sum() == pytest.approx(n, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_antisymmetry(self, n):
        t = gaussian_order_stats(n)
        assert np.max(np.abs(t.mean_xi + t.mean_xi[::-1])) < 1e-9

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_strictly_decreasing(self, n):
        t = gaussian_order_stats(n)
        assert np.all(np.diff(t.mean_xi) < 0)
        assert np.all(np.diff(t.mean_eta) < 0)

    def test_sigma_scaling(self):
        t1 = gaussian_order_stats(5, sigma=1.0)
        t3 = gaussian_order_stats(5, sigma=3.0)
        assert t3.mean_xi == pytest.approx(3.0 * t1.mean_xi, rel=1e-12)
        assert t3.second_xi == pytest.approx(9.0 * t1.second_xi, rel=1e-12)

    @pytest.mark.parametrize("n", range(6, 33, 5))
    def test_mean_convex_then_concave(self, n):
        # premise behind restricting value-permuting codes to unimodal compositions
        t = gaussian_order_stats(n)
        half = n // 2
        curv = np.diff(t.mean_xi, 2)
        for ell in range(1, n - 1):  # curv[ell-1] uses positions ell, ell+1, ell+2
            if ell + 2 <= half:
                assert curv[ell - 1] >= -1e-9
            if ell >= half + 1:
                assert curv[ell - 1] <= 1e-9


class TestFoldedMoments:
    def test_n1_half_normal(self):
        t = folded_order_stats(1)
        assert t.mean_eta[0] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-10)
        assert t.second_eta[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 7, 11])
    def test_energy_preserved(self, n):
        # sum of squared magnitudes equals sum of squares
        t = folded_order_stats(n)
        assert t.second_eta.sum() == pytest.approx(n, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 5, 8, 16, 24])
    def test_mean_eta_convex(self, n):
        t = folded_order_stats(n)
        assert np.all(np.diff(t.mean_eta, 2) >= -1e-9)

    def test_nonnegative(self):
        t = folded_order_stats(9)
        assert np.all(t.mean_eta >= 0)


class TestLazyTable:
    @pytest.mark.parametrize("n", [1, 7, 16])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_moments_are_scaled_unit_table(self, n, sigma):
        t = gaussian_order_stats(n, sigma)
        u = _unit_table(n)
        wanted = (u[0] * sigma, u[1] * sigma * sigma, u[2] * sigma, u[3] * sigma * sigma)
        for got, want in zip((t.mean_xi, t.second_xi, t.mean_eta, t.second_eta), wanted):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0

    @pytest.mark.parametrize("build", [gaussian_order_stats, folded_order_stats])
    @pytest.mark.parametrize("n,sigma", [(0, 1.0), (3, 0.0), (3, -1.0)])
    def test_bad_arguments_raise_on_call(self, build, n, sigma):
        with pytest.raises(ValueError):
            build(n, sigma)


def test_each_panel_count_evaluated_once(monkeypatch):
    """At n = 800 the folded quadrature refines past its first doubling, and
    each integral evaluates each panel count once, carrying the finer result
    to the next comparison."""
    seen = []
    moments = order_stats._descending_moments

    def counting(n, x, *rest):
        seen.append(("signed" if x[0] < 0 else "folded", len(x)))
        return moments(n, x, *rest)

    monkeypatch.setattr(order_stats, "_descending_moments", counting)
    order_stats._unit_table.__wrapped__(800)
    assert len(seen) == len(set(seen)), seen
    assert max(points for _, points in seen) > 2 * order_stats._BASE_PANELS * order_stats._GL_ORDER


def _scipy_unit_table(n, special):
    """order_stats._unit_table as it was written on scipy.special: the same
    quadrature, with gammaln for the binomial front, log_ndtr for the Gaussian
    parent and erf/erfc for the folded one."""
    def gaussian(x):
        log_pdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
        return special.log_ndtr(x), special.log_ndtr(-x), log_pdf

    def folded(x):
        z = x / math.sqrt(2.0)
        with np.errstate(divide="ignore"):
            log_cdf, log_sf = np.log(special.erf(z)), np.log(special.erfc(z))
        return log_cdf, log_sf, math.log(2.0) - 0.5 * x * x - 0.5 * math.log(2.0 * math.pi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cephes, "lgam", special.gammaln)
        mp.setattr(order_stats, "_gaussian_log_parts", gaussian)
        mp.setattr(order_stats, "_folded_log_parts", folded)
        return order_stats._unit_table.__wrapped__(n)


def test_tables_match_scipy():
    """Magnitude (eta) tables are scipy's bit for bit for n = 1..128 at sigma
    1 and 2.5; the signed (xi) ones, whose log Phi is not scipy's in the last
    bit, are within 1e-13."""
    special = pytest.importorskip("scipy.special")
    for n in range(1, 129):
        unit = _scipy_unit_table(n, special)
        for sigma in (1.0, 2.5):
            t = gaussian_order_stats(n, sigma)
            want = (unit[0] * sigma, unit[1] * sigma * sigma, unit[2] * sigma, unit[3] * sigma * sigma)
            for got, ref in zip((t.mean_eta, t.second_eta), want[2:]):
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()], (n, sigma)
            for got, ref in zip((t.mean_xi, t.second_xi), want[:2]):
                assert np.max(np.abs(got - ref)) <= 1e-13, (n, sigma)


# unit tables from n = 1 to 128, as float.hex, in a fresh interpreter
_TABLE_CHILD = """
import json, sys
from cpcodes.order_stats import _unit_table
tables = {n: [[v.hex() for v in a.tolist()] for a in _unit_table(n)]
          for n in (1, 2, 3, 7, 16, 41, 64, 128)}
json.dump(tables, open(sys.argv[1], "w"))
"""


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs an x86 OpenBLAS built with DYNAMIC_ARCH")
def test_tables_independent_of_blas_kernel(tmp_path):
    """The unit tables have the same bits under three OpenBLAS kernels, at
    one and at two BLAS threads: the quadrature's row sums are no BLAS
    call."""
    path = os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])
    reports = {}
    for kernel in ("Prescott", "Haswell", "SkylakeX"):
        runs = []
        for threads in ("1", "2"):
            report = tmp_path / f"{kernel}_{threads}.json"
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            proc = subprocess.Popen([sys.executable, "-c", _TABLE_CHILD, str(report)], env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            runs.append((threads, report, proc))
        for threads, report, proc in runs:  # the two thread counts run side by side
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            reports[kernel, threads] = json.loads(report.read_text())
    first = reports["SkylakeX", "1"]
    for key, got in reports.items():
        assert got == first, key


@pytest.mark.slow
class TestMonteCarloOracle:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_against_sampling(self, n):
        t = gaussian_order_stats(n)
        total = 10_000_000
        chunk = 1_000_000
        rng = np.random.default_rng(20240 + n)
        sums = np.zeros((4, n))
        sq = np.zeros((4, n))
        for _ in range(total // chunk):
            x = rng.standard_normal((chunk, n))
            xs = -np.sort(-x, axis=1)
            es = -np.sort(-np.abs(x), axis=1)
            for row, data in enumerate((xs, xs**2, es, es**2)):
                sums[row] += data.sum(axis=0)
                sq[row] += (data * data).sum(axis=0)
        means = sums / total
        stderr = np.sqrt(np.maximum(sq / total - means**2, 0.0) / total)
        for row, exact in enumerate((t.mean_xi, t.second_xi, t.mean_eta, t.second_eta)):
            assert np.all(np.abs(means[row] - exact) <= 4.0 * (stderr[row] + TOL))


class TestGroupedProjection:
    def test_example(self):
        out = grouped_projection(np.array([3.0, 2.0, 1.0]), Composition((1, 2)))
        assert out == pytest.approx([3.0, 3.0 / math.sqrt(2.0)])

    def test_identity_composition(self):
        x = np.array([2.0, 0.5, -1.0, -3.0])
        out = grouped_projection(x, Composition((1, 1, 1, 1)))
        assert np.array_equal(out, x)

    def test_norm_never_grows(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = -np.sort(-rng.standard_normal(8))
            out = grouped_projection(x, Composition((2, 3, 1, 2)))
            assert np.linalg.norm(out) <= np.linalg.norm(x) + 1e-12

    def test_batch(self):
        rng = np.random.default_rng(4)
        x = -np.sort(-rng.standard_normal((10, 6)), axis=1)
        c = Composition((2, 2, 2))
        batch = grouped_projection(x, c)
        rows = np.stack([grouped_projection(row, c) for row in x])
        assert np.allclose(batch, rows, atol=0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            grouped_projection(np.array([1.0, 2.0, 0.0]), Composition((1, 2)))

    @pytest.mark.parametrize("row,ok", [
        ([math.inf, 1.0, -math.inf], True),
        ([math.inf, math.inf, 0.0], True),
        ([1e308, -1e308, -1e308], True),
        ([-math.inf, 1.0, 0.0], False),
        ([-1e308, 1e308, 0.0], False),
        ([5e-324, 1e-323, 0.0], False),
        ([1.0, math.nan, 2.0], True),  # a NaN compares false either way, as in np.diff(x) > 0
    ])
    def test_order_check_matches_diff(self, row, ok):
        x = np.array([row, [3.0, 2.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):  # np.diff of inf - inf, 1e308 + 1e308
            assert (not np.any(np.diff(x, axis=-1) > 0)) == ok
            if ok:
                grouped_projection(x, Composition((1, 2)))
            else:
                with pytest.raises(ValueError, match="sorted in descending order"):
                    grouped_projection(x, Composition((1, 2)))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            grouped_projection(np.array([2.0, 1.0]), Composition((1, 2)))

