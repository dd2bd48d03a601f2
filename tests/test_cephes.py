"""The Cephes ports give scipy.special's results bit for bit, and so do the
wsc constants built on lgam alone; digamma at n/2 and the chi tails agree
with mpmath, and the wsc gain quantizer reaches scipy's fixed point."""

import math

import numpy as np
import pytest

from cpcodes import cephes, wsc

HALVES = [k / 2 for k in range(1, 2001)]  # every chi shape a = k/2 up to 1000


@pytest.fixture
def special():
    """scipy.special, the oracle of the tests that compare with it: only
    those skip without scipy."""
    return pytest.importorskip("scipy.special")


def _neighbours(x):
    return [np.nextafter(x, -np.inf).item(), x, np.nextafter(x, np.inf).item()]


def _assert_bits(ported, reference, points):
    """``ported(*p)`` and ``reference(*p)`` have the same bits at every point."""
    bad = [(p, float(ported(*p)).hex(), float(reference(*p)).hex()) for p in points]
    bad = [b for b in bad if b[1] != b[2]]
    assert not bad, f"{len(bad)} of {len(points)} differ, first {bad[:3]}"


def test_lgam(special):
    rng = np.random.default_rng(1986)
    xs = np.concatenate([rng.uniform(0.5, 2000.0, 4000), rng.uniform(0.5, 14.0, 2000),
                         HALVES[:40], [(n + 2) / 6 for n in range(2, 200)], [13.0, 1000.0]])
    _assert_bits(cephes.lgam, special.gammaln, [(x,) for x in xs.tolist()])


def test_psi():
    """psi(n/2) by its finite sums is within 1e-15 of mpmath at 40 digits
    for n = 2..4096 (the Cephes/Boost digamma it replaced was 1.26e-15 off)."""
    mp = pytest.importorskip("mpmath")
    bad = []
    for n in range(2, 4097):
        with mp.workdps(40):
            err = abs(wsc._digamma_half(n) - mp.digamma(mp.mpf(n) / 2))
        if err > 1e-15:
            bad.append((n, float(err)))
    assert not bad, f"{len(bad)} of 4095 off, first {bad[:3]}"


def test_erfc(special):
    """The array erfc is scipy's bit for bit on its domain, x > -1."""
    rng = np.random.default_rng(8)
    edges = [v for e in (1.0, 8.0, math.sqrt(cephes.MAXLOG)) for v in _neighbours(e) + _neighbours(-e)]
    xs = np.array(rng.uniform(-30.0, 30.0, 20_000).tolist() + edges + [0.0])
    xs = xs[xs > -1.0]
    got, want = cephes.erfc(xs), special.erfc(xs)
    bad = [(x, g.hex(), w.hex()) for x, g, w in zip(xs.tolist(), got.tolist(), want.tolist())
           if g.hex() != w.hex()]
    assert not bad, f"{len(bad)} of {len(xs)} differ, first {bad[:3]}"


def _tail_points():
    """(k, x) pairs: x at fractions and multiples of a = k/2, at a + 1 (where
    the sum switches tails) with its neighbouring doubles, and past 745,
    where e^-x underflows; every k up to 128 and a sparse grid up to 2000.
    Near the median at k = 8000 and 20000, a front factor multiplied in
    index order would overflow."""
    points = []
    for k in list(range(1, 129)) + list(range(129, 2001, 134)) + [2000]:
        a = k / 2
        xs = [a * f for f in (0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0)]
        points += [(k, x) for x in xs + _neighbours(a + 1.0) + [750.0, 1000.0]]
    for k in (8000, 20000):
        points += [(k, k / 2 * f) for f in (0.9, 1.0, 1.1)] + [(k, k / 2 + 1.0)]
    return points


@pytest.mark.parametrize("tail, reference", [("igam", "gammainc"), ("igamc", "gammaincc")])
def test_incomplete_gamma(tail, reference):
    """The chi tails P(k/2, x) (``igam``, scipy's ``gammainc``) and Q(k/2, x)
    (``igamc``, ``gammaincc``) against mpmath at 40 digits, each where it is
    the smaller tail: P below a = k/2, Q from a up (the median is in
    (a - 1/3, a)). The smaller tail is within 1e-13 relative for k <= 128,
    5e-13 up to k = 2000 and 1e-12 beyond (relative to the smallest normal
    double below it), and the other tail is 1 minus it, within that error
    and one rounding."""
    mp = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny
    lower = tail == "igam"
    points = [(k, x) for k, x in _tail_points() if (x < k / 2) == lower]
    bad = []
    for k, x in points:
        lo, hi = (0, x) if lower else (x, mp.inf)
        with mp.workdps(40):
            want = mp.gammainc(mp.mpf(k) / 2, lo, hi, regularized=True)
            rest = float(1 - want)
        small, big = wsc._chi_tails(k, x) if lower else wsc._chi_tails(k, x)[::-1]
        tol = 1e-13 if k <= 128 else 5e-13 if k <= 2000 else 1e-12
        err = float(abs(small - want) / max(want, tiny))
        if err > tol or abs(big - rest) > tol * want + 2.0**-53:
            bad.append((k, x, err, big - rest))
    assert points and not bad, f"{len(bad)} of {len(points)} {reference} off, first {bad[:3]}"


@pytest.mark.parametrize("call", [lambda: wsc._chi_tails(0, 1.0), lambda: wsc._chi_tails(1, -1.0),
                                  lambda: wsc._chi_tails(2, math.nan),
                                  lambda: wsc._chi_tails(2.5, 1.0),
                                  lambda: cephes.lgam(math.inf), lambda: cephes.lgam(0.0),
                                  lambda: cephes.lgam(-1.0)])
def test_outside_the_ported_domain_raises(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 41, 64])
@pytest.mark.parametrize("J", [1, 2, 3, 8, 12, 16, 32, 64])
def test_gain_codebook_equals_scipy(n, J, special):
    """The gains are scipy's fixed point: the conditional means, by
    ``scipy.special.gammainc``, of the cells cut at the midpoints between
    the gains are the gains, and the cell masses are the probs, within
    1e-12 of the largest gain and 1e-12."""
    gc = wsc.gain_codebook(J, n)
    gains = np.asarray(gc.gains)
    bounds = np.concatenate(([0.0], (gains[:-1] + gains[1:]) / 2.0, [np.inf]))
    f = [np.diff(special.gammainc(0.5 * k, 0.5 * bounds**2)) for k in (n, n + 1)]
    mean = math.sqrt(2.0) * math.exp(special.gammaln((n + 1) / 2.0) - special.gammaln(n / 2.0))
    assert np.max(np.abs(mean * f[1] / f[0] - gains)) <= 1e-12 * gains[-1]
    assert np.max(np.abs(f[0] - np.asarray(gc.probs))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 7, 16, 41, 64, 1000])
def test_wsc_constants_equal_scipy(n, special):
    """c and c_g, built on lgam, are scipy's bit for bit.  c_s and the SNR
    gain, built on digamma at n/2, are within 2e-15 and 5e-13 relative of
    the same formulas evaluated by mpmath at 40 digits."""
    mp = pytest.importorskip("mpmath")
    g_lambda = wsc.LATTICE_SECOND_MOMENTS["lambda24"]
    got = wsc.wsc_constants(n, g_lambda, sigma=1.5)
    log_area = math.log(2.0) + (n / 2.0) * math.log(math.pi) - special.gammaln(n / 2.0)
    c = math.exp(math.log((n - 1.0) / n) + math.log(g_lambda) + (2.0 / (n - 1.0)) * log_area)
    c_g = math.exp(2.0 * math.log(1.5) + (n / 2.0) * math.log(3.0)
                   + 3.0 * special.gammaln((n + 2.0) / 6.0) - math.log(8.0 * n)
                   - special.gammaln(n / 2.0))
    assert [got.c.hex(), got.c_g.hex()] == [float(v).hex() for v in (c, c_g)]
    with mp.workdps(40):
        half = mp.mpf(n) / 2
        log_area = mp.log(2) + half * mp.log(mp.pi) - mp.loggamma(half)
        c_mp = mp.exp(mp.log(mp.mpf(n - 1) / n) + mp.log(g_lambda) + 2 * log_area / (n - 1))
        c_s = c_mp * 2 * mp.mpf(1.5) ** 2 * mp.exp(mp.digamma(half))
        snr = -10 * (1 - mp.mpf(1) / n) * mp.log10(2 * mp.exp(mp.digamma(half)) / n)
        assert abs(got.c_s - c_s) <= 2e-15 * c_s
        assert abs(wsc.snr_improvement_db(n) - snr) <= 5e-13 * abs(snr)
