"""The Cephes ports give scipy.special's results bit for bit, and so do the
wsc constants built on them; the wsc gain quantizer reaches scipy's fixed
point."""

import math

import numpy as np
import pytest

from cpcodes import cephes, wsc

special = pytest.importorskip("scipy.special")

HALVES = [k / 2 for k in range(1, 2001)]  # every chi shape a = k/2 up to 1000


def _neighbours(x):
    return [np.nextafter(x, -np.inf).item(), x, np.nextafter(x, np.inf).item()]


def _assert_bits(ported, reference, points):
    """``ported(*p)`` and ``reference(*p)`` have the same bits at every point."""
    bad = [(p, float(ported(*p)).hex(), float(reference(*p)).hex()) for p in points]
    bad = [b for b in bad if b[1] != b[2]]
    assert not bad, f"{len(bad)} of {len(points)} differ, first {bad[:3]}"


def test_lgam():
    rng = np.random.default_rng(1986)
    xs = np.concatenate([rng.uniform(0.5, 2000.0, 4000), rng.uniform(0.5, 14.0, 2000),
                         HALVES[:40], [(n + 2) / 6 for n in range(2, 200)], [13.0, 1000.0]])
    _assert_bits(cephes.lgam, special.gammaln, [(x,) for x in xs.tolist()])


def test_psi():
    xs = HALVES + [10.0, 10.5, 11.0]
    _assert_bits(cephes.psi, special.digamma, [(x,) for x in xs])


def test_erfc():
    rng = np.random.default_rng(8)
    edges = [v for e in (1.0, 8.0, math.sqrt(cephes.MAXLOG)) for v in _neighbours(e) + _neighbours(-e)]
    xs = rng.uniform(-30.0, 30.0, 20_000).tolist() + edges + [0.0]
    _assert_bits(cephes.erfc, special.erfc, [(x,) for x in xs])


def _igam_points():
    """x around each shape, at the branch edges of igam and igamc (x = 0.5,
    1.0, 1.1 and a; |x - a|/a = 0.3 and 0.4; Temme's a = 20 and 200, and its
    4.5/sqrt(a) band beyond), each with its neighbouring doubles."""
    shapes = HALVES[:120] + HALVES[120::23] + [20.0, 20.5, 200.0, 200.5]
    points = []
    for a in shapes:
        xs = [a * f for f in (0.05, 0.5, 0.6, 0.7, 0.9, 0.99, 1.0, 1.01, 1.1, 1.3, 1.4, 2.0, 4.0)]
        xs += [0.3, 0.45, 0.5, 1.0, 1.1, 3.0, a * (1.0 + 4.5 / math.sqrt(a))]
        points += [(a, v) for x in xs for v in _neighbours(x)]
    return points


@pytest.mark.parametrize("ported, reference", [(cephes.igam, "gammainc"),
                                               (cephes.igamc, "gammaincc")])
def test_incomplete_gamma(ported, reference):
    _assert_bits(ported, getattr(special, reference), _igam_points())


@pytest.mark.parametrize("call", [lambda: cephes.igam(0.75, 1.0), lambda: cephes.igamc(0.0, 1.0),
                                  lambda: cephes.igamc(1.0, -1.0), lambda: cephes.igam(1.0, -1.0),
                                  lambda: cephes.psi(math.inf), lambda: cephes.lgam(0.0),
                                  lambda: cephes.psi(-1.0)])
def test_outside_the_ported_domain_raises(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 41, 64])
@pytest.mark.parametrize("J", [1, 2, 3, 8, 12, 16, 32, 64])
def test_gain_codebook_equals_scipy(n, J):
    """The gains are scipy's fixed point: the conditional means, by
    ``scipy.special.gammainc``, of the cells cut at the midpoints between
    the gains are the gains, and the cell masses are the probs, within
    1e-12 of the largest gain and 1e-12.  The gain distortion is scipy's
    closed form bit for bit."""
    gc = wsc.gain_codebook(J, n)
    gains = np.asarray(gc.gains)
    bounds = np.concatenate(([0.0], (gains[:-1] + gains[1:]) / 2.0, [np.inf]))
    f = [np.diff(special.gammainc(0.5 * k, 0.5 * bounds**2)) for k in (n, n + 1, n + 2)]
    mean = math.sqrt(2.0) * math.exp(special.gammaln((n + 1) / 2.0) - special.gammaln(n / 2.0))
    assert np.max(np.abs(mean * f[1] / f[0] - gains)) <= 1e-12 * gains[-1]
    assert np.max(np.abs(f[0] - np.asarray(gc.probs))) <= 1e-12
    if n >= 2:
        want = float((n * f[2] - 2.0 * gains * mean * f[1] + gains * gains * f[0]).sum()) / n
        assert wsc.gain_distortion(gc, n).hex() == want.hex()


@pytest.mark.parametrize("n", [2, 3, 7, 16, 41, 64, 1000])
def test_wsc_constants_equal_scipy(n):
    g_lambda = wsc.LATTICE_SECOND_MOMENTS["lambda24"]
    got = wsc.wsc_constants(n, g_lambda, sigma=1.5)
    log_area = math.log(2.0) + (n / 2.0) * math.log(math.pi) - special.gammaln(n / 2.0)
    c = math.exp(math.log((n - 1.0) / n) + math.log(g_lambda) + (2.0 / (n - 1.0)) * log_area)
    c_s = c * 2.0 * 1.5 * 1.5 * math.exp(special.digamma(n / 2.0))
    c_g = math.exp(2.0 * math.log(1.5) + (n / 2.0) * math.log(3.0)
                   + 3.0 * special.gammaln((n + 2.0) / 6.0) - math.log(8.0 * n)
                   - special.gammaln(n / 2.0))
    assert [got.c.hex(), got.c_s.hex(), got.c_g.hex()] == [float(v).hex() for v in (c, c_s, c_g)]
    snr = -10.0 * (1.0 - 1.0 / n) * math.log10(2.0 * math.exp(special.digamma(n / 2.0)) / n)
    assert wsc.snr_improvement_db(n).hex() == float(snr).hex()
