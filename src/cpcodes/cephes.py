"""Scalar ports of the Cephes special functions behind ``scipy.special``
that the codec evaluates, each bit for bit the compiled routine.

* :func:`ndtr` (``scipy.special.ndtr``) is Cephes ``ndtr``, vectorised over
  a numpy array; :func:`erfc` is Cephes ``erfc`` on one float.  Both use the
  same coefficient tables (S. L. Moshier, *Methods and Programs for
  Mathematical Functions*, 1989).
* :func:`lgam` (``gammaln``) and :func:`psi` (``digamma``, with Boost's
  rational function on [1, 2]) take any positive argument.
* :func:`igam`/:func:`igamc` (``gammainc``/``gammaincc``) and their inverses
  :func:`igami`/:func:`igamci` (``gammaincinv``/``gammainccinv``) follow
  DiDonato and Morris, "Computation of the incomplete gamma function ratios
  and their inverse", ACM TOMS 12 (1986): a power series, a continued
  fraction, a small-x series and Temme's uniform expansion (DLMF 8.12) for
  the ratios, and the DiDonato-Morris starting value plus three Halley steps
  for the inverse.  Only shapes ``a = k/2 >= 1/2`` (the chi law of ``k``
  degrees of freedom) are ported, and other shapes raise ``ValueError``;
  the branches only shapes below 0.3 reach (DiDonato-Morris Eq. 22 and 24)
  are absent.

Bit identity rests on three rules.  ``exp``, ``log``, ``pow`` and ``sqrt``
go through :mod:`math`, which calls the same libm as the compiled code
(numpy's vectorised exp and log differ from libm in the last bit for some
arguments); ``expm1`` is Cephes' own, and the inverse's starting value calls
libm's ``log1p``, as the compiled code does.  Polynomials are evaluated in
Cephes ``polevl``/``p1evl`` order, one rounded multiply and one rounded add
per step.  Every series keeps its own convergence test, so it stops at the
same term.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MACHEP = 1.11022302462515654042e-16  # 2**-53
MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
EULER = 0.577215664901532860606512090082402431
_SQRT1_2 = math.sqrt(0.5)
_E = math.exp(1.0)
_MAXITER = 2000


def _horner(x, coefs, monic: bool):
    """Cephes ``polevl`` (``monic=False``) or ``p1evl`` (``monic=True``):
    one rounded multiply and one rounded add per step, as the C loop does.
    ``x`` is a float or a numpy array."""
    if monic:
        acc = x + coefs[0]
        rest = coefs[1:]
    else:
        acc = coefs[0] * x + coefs[1]
        rest = coefs[2:]
    for c in rest:
        acc *= x
        acc += c
    return acc


def _ratevl(x: float, num, den) -> float:
    """Cephes ``ratevl`` for a numerator and denominator of equal degree,
    coefficients highest power first: num(x)/den(x), evaluated in ``1/x``
    from the constant term up when ``|x| > 1``."""
    if abs(x) > 1.0:
        return _horner(1.0 / x, num[::-1], False) / _horner(1.0 / x, den[::-1], False)
    return _horner(x, num, False) / _horner(x, den, False)


# ---------------------------------------------------------------------------
# normal CDF and the error function


# Cephes ndtr.c coefficient tables: erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= x < 8 and exp(-x^2) R(x)/S(x) beyond; erf(x) = x T(x^2)/U(x^2) for
# |x| <= 1.  Q, S and U are monic, their leading 1 implied.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


def _erf_small(x):
    """Cephes ``erf`` for ``|x| <= 1``."""
    z = x * x
    return x * _horner(z, _ERF_T, False) / _horner(z, _ERF_U, True)


def _erfc_tail(z):
    """Cephes ``erfc`` for every element ``z >= sqrt(1/2)`` (or NaN) of an array."""
    out = np.zeros_like(z)  # exp(-z*z) underflows: Cephes returns 0
    mid = z < 1.0
    out[mid] = 1.0 - _erf_small(z[mid])
    with np.errstate(over="ignore"):
        nz = -z * z
    live = ~(mid | (nz < -MAXLOG))
    zl = z[live]
    e = np.array([math.exp(v) for v in nz[live].tolist()])
    near = zl < 8.0
    y = np.empty_like(zl)
    for sel, num, den in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):  # NaN goes far
        if sel.any():
            x = zl[sel]
            y[sel] = e[sel] * _horner(x, num, False) / _horner(x, den, True)
    out[live] = y
    return out


def ndtr(a):
    """Standard normal CDF of every element of ``a``, bit for bit the
    Cephes ``ndtr`` that ``scipy.special.ndtr`` evaluates."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    small = z < _SQRT1_2
    out = np.empty_like(x)
    out[small] = 0.5 + 0.5 * _erf_small(x[small])
    big = ~small
    y = 0.5 * _erfc_tail(z[big])
    out[big] = np.where(x[big] > 0, 1.0 - y, y)
    return out


def erfc(a: float) -> float:
    """Cephes ``erfc`` of one finite float."""
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf_small(a)
    z = -a * a
    if z < -MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _horner(x, _ERFC_P, False) / _horner(x, _ERFC_Q, True)
    else:
        y = z * _horner(x, _ERFC_R, False) / _horner(x, _ERFC_S, True)
    if a < 0:
        y = 2.0 - y
    return y


# ---------------------------------------------------------------------------
# gamma, log-gamma and digamma

_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
# lgam: Stirling correction A(1/x^2)/x for x >= 13, x B(x)/C(x) on [2, 3)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _gamma(x: float) -> float:
    """Cephes ``Gamma`` for ``1e-9 <= x <= 33``."""
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _horner(x, _GAMMA_P, False) / _horner(x, _GAMMA_Q, False)


def lgam(x: float) -> float:
    """Cephes ``lgam``, ``scipy.special.gammaln``, for ``x > 0``."""
    if not 0.0 < x < _MAXLGM:
        raise ValueError(f"lgam is ported for 0 < x < {_MAXLGM}, got {x}")
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _horner(x, _LGAM_B, False) / _horner(x, _LGAM_C, True)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _LGAM_A, False) / x


# psi: Boost's digamma(x) = (x - root) (Y + P(x-1)/Q(x-1)) on [1, 2], with
# the positive root split into three doubles and Y a float32 constant
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)
_PSI_Y = 0.9955816268920898
_PSI_ROOT = (1569415565.0 / 1073741824.0, (381566830.0 / 1073741824.0) / 1073741824.0,
             0.9016312093258695918615325266959189453125e-19)
# asymptotic series in 1/x^2 for x > 10
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)


def psi(x: float) -> float:
    """Cephes ``psi``, ``scipy.special.digamma``, for ``x > 0``."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"psi is ported for finite x > 0, got {x}")
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        g = x - _PSI_ROOT[0]
        g -= _PSI_ROOT[1]
        g -= _PSI_ROOT[2]
        r = _horner(x - 1.0, _PSI_P, False) / _horner(x - 1.0, _PSI_Q, False)
        return y + (g * _PSI_Y + g * r)
    if x < 1.0e17:
        z = 1.0 / (x * x)
        asy = z * _horner(z, _PSI_A, False)
    else:
        asy = 0.0
    return y + (math.log(x) - (0.5 / x) - asy)


# ---------------------------------------------------------------------------
# helpers of the incomplete gamma ratios

_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
            2.0000000000000000000897e0)


def _expm1(x: float) -> float:
    """Cephes ``expm1`` (a Pade form on [-1/2, 1/2]), for finite ``x``."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _horner(xx, _EXPM1_P, False)
    r = r / (_horner(xx, _EXPM1_Q, False) - r)
    return r + r


def _log1pmx(x: float) -> float:
    """log(1 + x) - x by its Taylor series.  Both callers stay within
    ``|x| < 1/2`` (Temme's regime has ``|x| < 0.3``, and :func:`_igam_fac`'s
    near branch ``|x| < 0.45``), where the compiled routine sums the same
    series; beyond it, it would switch to Cephes' own ``log1p``."""
    if not abs(x) < 0.5:
        raise ValueError(f"log1pmx is ported for |x| < 1/2, got {x}")
    xfac = x
    res = 0.0
    for n in range(2, 500):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < MACHEP * abs(res):
            break
    return res


# Euler-Maclaurin remainder coefficients (2k)!/B_2k of Cephes zeta
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
           -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)


def _zeta(x: float) -> float:
    """Cephes ``zeta(x, 1)``: the Riemann zeta function for ``x > 1`` by
    Euler-Maclaurin summation."""
    s = 1.0
    a = 1.0
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _lgam1p_taylor(x: float) -> float:
    if x == 0:
        return 0.0
    res = -EULER * x
    xfac = -x
    for n in range(2, 42):
        xfac *= -x
        coeff = _zeta(n) * xfac / n
        res += coeff
        if abs(coeff) < MACHEP * abs(res):
            break
    return res


@lru_cache(maxsize=2)
def _lgam1p(x: float) -> float:
    """lgam(1 + x) for the shapes 1/2 and 1, the only ones :func:`_igamc_series`
    sees (it needs ``a <= 1.1 x <= 1.21``)."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    return math.log(x) + _lgam1p_taylor(x - 1.0)


# Lanczos approximation with g = lanczos_g, scaled by exp(g): the rational
# sum of Boost's lanczos13m53, numerator and denominator highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
                19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
                6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
                601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
                14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
                86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
                56906521.91347156388090791033559122686859)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0,
                105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)


def _check_shape(a: float) -> None:
    if not (a >= 0.5 and (2.0 * a).is_integer()):
        raise ValueError(f"the incomplete gamma port takes shapes k/2 >= 1/2, got {a}")


@lru_cache(maxsize=64)
def _shape_terms(a: float) -> tuple[float, float, float]:
    """``lgam(a)``, the Lanczos ``fac = a + g - 1/2`` and the prefactor
    ``sqrt(fac / e) / lanczos_sum_expg_scaled(a)`` of :func:`_igam_fac`, which
    depend on the shape alone."""
    fac = a + _LANCZOS_G - 0.5
    return lgam(a), fac, math.sqrt(fac / _E) / _ratevl(a, _LANCZOS_NUM, _LANCZOS_DEN)


def _igam_fac(a: float, x: float) -> float:
    """x^a exp(-x) / Gamma(a), the front factor of both ratios."""
    lg, fac, res = _shape_terms(a)
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - lg
        if ax < -MAXLOG:
            return 0.0
        return math.exp(ax)
    if a < 200 and x < 200:
        res *= math.exp(a - x) * math.pow(x / fac, a)
    else:
        num = x - a - _LANCZOS_G + 0.5
        res *= math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)
    return res


def _igam_series(a: float, x: float) -> float:
    """P(a, x) by its power series (DLMF 8.11.4)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16


def _igamc_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by its continued fraction (DLMF 8.9.2)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= MACHEP:
            break
    return ans * ax


def _igamc_series(a: float, x: float) -> float:
    """Q(a, x) for small x (DLMF 8.7.3), free of the cancellation in 1 - P."""
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - lgam(a)) * total


# Temme's coefficients d[k][n] of DLMF 8.12.12, as scipy's
# _precompute/gammainc_asy.py generates them with mpmath; the 625 doubles
# (row k, column n) of the table d in scipy's igam.h, copied from the compiled
# scipy 1.17.1 special-function module.
_TEMME_D = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.1854485106799924e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10, -2.551419399494625e-11, -5.830772132550426e-11,
     2.4361948020667415e-11, -5.0276692801141755e-12, 1.1004392031956135e-13,
     3.3717632624009856e-13, -1.392388722418162e-13, 2.8534893807047445e-14,
     -5.139111834242572e-16, -1.9752288294349442e-15),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
     0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05,
     7.64916091608111e-06, -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07,
     -5.752545603517705e-08, 1.1951628599778148e-08, -1.7543241719747647e-11,
     -1.0091543710600413e-09, 4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
     7.1624989648114856e-12, -2.933186643771437e-12, 5.996696365683689e-13,
     -2.1671786527323313e-16, -4.978339972369262e-14, 2.0291628823713425e-14,
     -4.13125571381061e-15),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
     -0.00010736653226365161, 5.2923448829120125e-05, -1.2760635188618728e-05,
     3.423578734096138e-08, 1.3721957309062932e-06, -6.298992138380055e-07,
     1.4280614206064242e-07, -2.0477098421990866e-10, -1.409252991086752e-08,
     6.228974084922022e-09, -1.3670488396617112e-09, 9.428356159014678e-13,
     1.2872252400089318e-10, -5.5645956134363323e-11, 1.197593554636698e-11,
     -4.1689782251838634e-15, -1.0940640427884595e-12, 4.662239946390136e-13,
     -9.905105763906907e-14, 1.8931876768373515e-17, 8.859221872591127e-15),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
     -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
     -2.1894761681963938e-11, 9.790998951171684e-12, -2.178219188018096e-12,
     6.208819573407901e-17, 2.126978363279737e-13, -9.344688791517433e-14, 2.045367122678285e-14),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11, 2.8865829742708783e-08,
     -1.4189739437803219e-08, 3.4463580499464896e-09, -2.3024517174528067e-13,
     -3.9409233028046403e-10, 1.86023389685045e-10, -4.356323005056618e-11, 1.278600101629623e-15,
     4.67927502665792e-12, -2.149246470613483e-12, 4.908815614809652e-13, -6.33859148489156e-18,
     -5.045332069080094e-14),
    (-0.00033679855336635813, -6.972813758365858e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
     3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15, 9.358944242306784e-11,
     -4.513426216163278e-11, 1.0799129993116828e-11, -3.661886712685252e-17,
     -1.210902069055155e-12, 5.680743584990564e-13, -1.3249659916340829e-13),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
     -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05,
     -3.0796134506033047e-09, 3.465155368803609e-06, -2.0291327396058603e-06,
     5.788792863149004e-07, 2.338630673826657e-13, -8.828600746330484e-08, 4.7435958880408125e-08,
     -1.2545415020710382e-08, 8.649648858010293e-14, 1.6846058979264062e-09,
     -8.575492823577594e-10, 2.1598224929232125e-10, -7.613230520476153e-16,
     -2.6639822008536144e-11, 1.3065700536611057e-11, -3.1799163902367977e-12,
     4.710976121367431e-18, 3.6902800842763465e-13),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
     2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
     4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
     -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
     -1.4578352908731272e-08, 3.887645959386175e-09, -3.881002251019412e-17,
     -5.327994173877286e-10, 2.7437977643314844e-10, -6.995796092070568e-11,
     2.589986387486848e-17, 8.856689099669639e-12, -4.403168815871311e-12,
     1.0865561947091654e-12),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07,
     0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05,
     4.557909867922708e-09, -1.0595271125805195e-05, 6.783342904865167e-06,
     -2.1075476666258803e-06, -1.7213731432817144e-11, 3.773587741611098e-07,
     -2.1867506700122867e-07, 6.220228804018927e-08, 6.597703826733e-16, -9.590386497425686e-09,
     5.213214492280807e-09, -1.3991589583935709e-09, 5.382058999060575e-16,
     1.9484714275467745e-10, -1.0127287556389682e-10, 2.6077347197254926e-11,
     -5.090418699993299e-18, -3.3721464474854593e-12),
    (-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
     -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
     -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
     -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
     8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07, 8.862466778790695e-08,
     -2.5184812301826817e-08, -1.0225912098215092e-14, 3.896947075815478e-09,
     -2.1267304792235634e-09, 5.737013552805138e-10, -1.887749850169741e-19,
     -8.093153869465787e-11, 4.23827232834492e-11, -1.1002224534207727e-11),
    (0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636, 9.9324041226423e-07,
     -0.0005087450129309319, 0.00042735056665392886, -0.000168588537679108, -8.1301893922785e-09,
     4.5284402370562144e-05, -3.127053674781734e-05, 1.044986828530338e-05,
     4.8435226265680926e-11, -2.148256587345626e-06, 1.329369701097492e-06,
     -4.029569309210103e-07, -1.756787766632329e-13, 7.014504316366825e-08,
     -4.040787734999483e-08, 1.1474026743371962e-08, 3.9642746853563326e-18,
     -1.7804938269892715e-09, 9.748026254873165e-10, -2.6405338676507616e-10,
     5.794875163403742e-18, 3.764774955354384e-11),
    (0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276, 0.00213896861856891,
     -0.0010108559391263003, -3.99127055299192e-07, 0.0003623502508476469,
     -0.00028143901463712157, 0.00010449513336495887, 2.12114184918303e-09,
     -2.5779417251947842e-05, 1.7281818956040464e-05, -5.641377387290428e-06,
     -1.1024320105776174e-11, 1.1223224418895176e-06, -6.869339637952674e-07,
     2.0653236975414888e-07, 4.6714772409838506e-14, -3.5609886164949055e-08,
     2.0470855345905963e-08, -5.809173863328336e-09, -1.332821287582869e-16,
     9.035460439133513e-10, -4.959878251733084e-10, 1.3481607129399748e-10),
    (-0.004072512119514016, 0.00640336283380807, -0.004041016108167662, -2.183732802866233e-06,
     0.002174044180125464, -0.001970044051841889, 0.0008359546974796246, 1.9445447567109655e-08,
     -0.000257793871204217, 0.00019009987368139304, -6.769649993743896e-05,
     -1.4440629666426571e-10, 1.5712512518742267e-05, -1.0304008744776892e-05,
     3.304517767401387e-06, 7.982976024232571e-13, -6.4097794149313e-07, 3.8894624761300054e-07,
     -1.161834764494887e-07, -2.816808630596451e-15, 1.9878012911297094e-08,
     -1.1407719956357511e-08, 3.2355857064185554e-09, 4.175946829345594e-20,
     -5.042311271810582e-10),
    (-0.0059475779383993, -0.0005401647678926045, 0.00879104135507679, -0.009857631558785612,
     0.005013469503102154, 1.2807521786221875e-06, -0.0020626019342754685, 0.0017109128573523059,
     -0.000676953127141338, -6.901154567656214e-09, 0.00018855128143995903,
     -0.0001339521566349197, 4.626318303352804e-05, 4.003423061332135e-11,
     -1.0255652921494033e-05, 6.612086372797651e-06, -2.0913022027253007e-06,
     -2.0951775649603836e-13, 3.975602904199325e-07, -2.395621197881589e-07,
     7.118288338214586e-08, 8.925574873053455e-16, -1.2101547235064675e-08, 6.935061824833439e-09,
     -1.96614644538561e-09),
    (0.01740202778752271, -0.029527880945699123, 0.020045875571402798, 7.0289515966903405e-06,
     -0.012375421071343148, 0.011976293444235253, -0.0054156038466518525, -6.329089339641862e-08,
     0.0018855118129005065, -0.001473473274825001, 0.0005551581009770838, 5.240683441255066e-10,
     -0.00014357913535784837, 9.91812932249433e-05, -3.346083474947831e-05,
     -3.575583729109899e-12, 7.1560851960630075e-06, -4.551680262815553e-06,
     1.4236576649271474e-06, 1.8803149082089665e-14, -2.662340389892921e-07,
     1.5950642189595716e-07, -4.71875146738411e-08, -6.510787295875518e-17,
     7.979509102674624e-09),
    (0.03024912416090589, 0.0024817436002649977, -0.049939134373457025, 0.05991564300930787,
     -0.03248320760162339, -5.721296865210344e-06, 0.015085251778569354, -0.013261324005088445,
     0.0055515262632426145, 3.026318225703001e-08, -0.0017229548406756724, 0.0012893570099929638,
     -0.00046845138348319875, -1.830259937893045e-10, 0.00011449739014822654,
     -7.737856522124447e-05, 2.5625836246985202e-05, 1.0766165333192815e-12,
     -5.324680928242262e-06, 3.349634863064464e-06, -1.0381253128684019e-06,
     -5.608909920621128e-15, 1.9150821930676592e-07, -1.1418365800203487e-07,
     3.3654425209171787e-08),
    (-0.09905102088015905, 0.17954011706123485, -0.12989606383463778, -3.1478872752284355e-05,
     0.09051063527684813, -0.0928288244111844, 0.04441211283987781, 2.7779236316835886e-07,
     -0.017229543805449696, 0.014182925050891573, -0.005621416163374734, -2.39598509186381e-09,
     0.0016029634366079909, -0.0011606784674435774, 0.00041001337768153875, 1.836580075409066e-11,
     -9.58442565636559e-05, 6.364306233776471e-05, -2.076250624489065e-05,
     -1.1806020912804483e-13, 4.213180823912065e-06, -2.626224133701247e-06,
     8.077062049493066e-07, 6.012591212363273e-16, -1.472973737401884e-07),
    (-0.19994542198219728, -0.015056113040026424, 0.36470239469348487, -0.4643519231173355,
     0.26640934719197895, 3.403826602714719e-05, -0.13784338709329624, 0.1276467178337056,
     -0.056213828755200985, -1.753150885483011e-07, 0.019235592956768112, -0.015088821281095314,
     0.005740185445135012, 1.0622382710310225e-09, -0.0015335082692563998, 0.0010819320643228215,
     -0.0003737251019394566, -6.617090972903199e-12, 8.426361738090962e-05,
     -5.515070682748348e-05, 1.776953644834807e-05, 3.882792321020553e-14, -3.53513697488768e-06,
     2.186583213004527e-06, -6.68128494476256e-07),
    (0.7243860850402943, -1.3918010932653375, 1.0654143352413967, 0.0001876173868950258,
     -0.827055011761527, 0.8935243334782842, -0.44971003995291337, -1.6107401567546651e-06,
     0.1923559016527109, -0.1659770216004261, 0.06888222268181433, 1.3910091724608687e-08,
     -0.02146911561508663, 0.016228980898865892, -0.005979601617258426, -1.1287469112826745e-10,
     0.0015167451119784856, -0.00104786342935539, 0.0003553907288912642, 8.170432211180152e-13,
     -7.77730134424524e-05, 5.029141389700772e-05, -1.6035083867000518e-05,
     1.2469354315487606e-14, 3.1369106244517616e-06),
    (1.6668949727276812, 0.1165462765994632, -3.3288393225018904, 4.469232548286404,
     -2.6977693045875806, -0.0002600667859891061, 1.5389017615694538, -1.4937962361134611,
     0.6888196463323315, 1.3077482004552384e-06, -0.2576296332559629, 0.21097676102125448,
     -0.08371440835921988, -7.792042888135476e-09, 0.0242679230648336, -0.017813678334552312,
     0.006397033038890006, 4.943080709048052e-11, -0.0015554602758465635, 0.0010561196919903215,
     -0.000352771844604729, 9.300233464502246e-14, 7.528585502655717e-05, -4.818651556915635e-05,
     1.5227271505597605e-05),
    (-6.618829886137293, 13.397985455142589, -10.789350606845145, -0.0014352254537875018,
     9.23336945961898, -10.456552819547769, 5.510552602903347, 1.2024439690716742e-05,
     -2.5762961164755818, 2.320744274538718, -1.0045728797216285, -1.0207833290021913e-07,
     0.3397509217116947, -0.2672051745075747, 0.10235252851562705, 8.432973048487163e-10,
     -0.027998284958442594, 0.020066274144976814, -0.007055436891508624, 1.9402238183698188e-12,
     0.0016562888105449611, -0.0011082898580743682, 0.0003654545161310169, -5.129003202697179e-11,
     -7.634010369686903e-05),
    (-17.112706061976095, -1.1208044642899115, 37.131966511885445, -52.29827102534896,
     33.058589696624615, 0.002479129897620022, -20.61089403411526, 20.88672775145582,
     -10.045703956517752, -1.2238783449063012e-05, 4.077013427422114, -3.473667358470195,
     1.4329352617312006, 7.135991441187971e-08, -0.4479725715911561, 0.3411266608064446,
     -0.12699786326594922, -2.895367726908153e-10, 0.03312577627825986, -0.023274087021036102,
     0.008039999350364889, -1.177805216235265e-09, -0.001832162489107167, 0.0012108282933588664,
     -0.0003947994124682252),
    (73.89033153567425, -156.80141270402274, 132.2177542759164, 0.013692876877324546,
     -123.66496885920151, 146.2068939106273, -80.36558772486535, -0.00011259851148881298,
     40.77013219617994, -38.21034001327303, 17.19522294277362, 9.351970795516835e-07,
     -6.271615990774704, 5.116899907185264, -2.0319658112299095, -4.950721558276154e-09,
     0.596263972943326, -0.44220765337238094, 0.16079998700166273, -2.4733786203223403e-08,
     -0.040307574759979765, 0.02784905074709787, -0.009475185899205422, 6.419922235909132e-06,
     0.002125018077469946),
    (212.1683709838252, 13.107863022633868, -496.9828593287175, 731.215952669692,
     -482.1382172089085, -0.028817248692894887, 326.167203029471, -343.8934028008712,
     171.95193870816232, 0.00014038077378096157, -75.2594195897599, 66.51969984520935,
     -28.447519748152462, -7.613702615875392e-07, 9.540223710530437, -7.517530111331138,
     2.894399756887196, -4.66121949995382e-07, -0.8061514959879409, 0.5848300657063102,
     -0.20845408972964957, 0.00014765818959305816, 0.05100043386375302, -0.03306625214188366,
     0.015109265210467774),
    (-989.5964309832236, 2192.555536090523, -1928.3586782723355, -0.15925738122215252,
     1956.9985945919857, -2407.2514765081555, 1375.6149959336497, 0.0012920735237496668,
     -752.5941715948055, 731.7166874220871, -341.37023466220063, -9.985739026060805e-06,
     133.56313181291574, -112.76295161252794, 46.31039609820446, -7.923738713361476e-06,
     -14.510726927018647, 11.111771248100563, -4.169081794527089, 0.0031008219800117806,
     1.1220095449981469, -0.7605237992614992, 0.36262236505085255, 0.2216867741940747,
     0.48683443692930506),
)


def _asymptotic_series(a: float, x: float, lower: bool) -> float:
    """P(a, x) (``lower``) or Q(a, x) by Temme's uniform expansion (DLMF
    8.12.3/8.12.4), for x near a large a."""
    sgn = -1.0 if lower else 1.0
    lam = x / a
    sigma = (x - a) / a
    if lam > 1:
        eta = math.sqrt(-2.0 * _log1pmx(sigma))
    elif lam < 1:
        eta = -math.sqrt(-2.0 * _log1pmx(sigma))
    else:
        eta = 0.0
    res = 0.5 * erfc(sgn * eta * math.sqrt(a / 2.0))
    etapow = [1.0]
    for _ in range(24):
        etapow.append(eta * etapow[-1])
    total = 0.0
    afac = 1.0
    absoldterm = math.inf
    for row in _TEMME_D:
        ck = row[0]
        for n in range(1, 25):
            ckterm = row[n] * etapow[n]
            ck += ckterm
            if abs(ckterm) < MACHEP * abs(ck):
                break  # the coefficients are bounded, so this term is the largest left
        term = ck * afac
        absterm = abs(term)
        if absterm > absoldterm:
            break  # the series started to diverge
        total += term
        if absterm < MACHEP * abs(total):
            break
        absoldterm = absterm
        afac /= a
    return res + sgn * math.exp(-0.5 * a * eta * eta) * total / math.sqrt(2.0 * math.pi * a)


def _temme_regime(a: float, x: float) -> bool:
    """Whether x is near enough a large a for :func:`_asymptotic_series`."""
    ratio = abs(x - a) / a
    return (20.0 < a < 200.0 and ratio < 0.3) or (a > 200.0 and ratio < 4.5 / math.sqrt(a))


def igam(a: float, x: float) -> float:
    """Cephes ``igam``, ``scipy.special.gammainc``: the regularized lower
    incomplete gamma ratio P(a, x) for ``a = k/2 >= 1/2`` and ``x >= 0``."""
    _check_shape(a)
    if not x >= 0.0:
        raise ValueError(f"igam needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if _temme_regime(a, x):
        return _asymptotic_series(a, x, True)
    if x > 1.0 and x > a:
        return 1.0 - igamc(a, x)
    return _igam_series(a, x)


def igamc(a: float, x: float) -> float:
    """Cephes ``igamc``, ``scipy.special.gammaincc``: Q(a, x) = 1 - P(a, x)
    for ``a = k/2 >= 1/2`` and ``x >= 0``."""
    _check_shape(a)
    if not x >= 0.0:
        raise ValueError(f"igamc needs x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if _temme_regime(a, x):
        return _asymptotic_series(a, x, False)
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


# ---------------------------------------------------------------------------
# inverse of the incomplete gamma ratios

# DiDonato-Morris Eq. 32: the normal quantile from t = sqrt(-2 log p)
_INV_S_NUM = (0.213623493715853, 4.28342155967104, 11.6616720288968, 3.31125922108741)
_INV_S_DEN = (0.3611708101884203e-1, 1.27364489782223, 6.40691597760039, 6.61053765625462, 1.0)


def _find_inverse_s(p: float, q: float) -> float:
    t = math.sqrt(-2.0 * math.log(p if p < 0.5 else q))
    s = t - _horner(t, _INV_S_NUM, False) / _horner(t, _INV_S_DEN, False)
    return -s if p < 0.5 else s


def _didonato_sn(a: float, x: float, terms: int, tolerance: float) -> float:
    """DiDonato-Morris Eq. 34."""
    total = 1.0
    partial = x / (a + 1)
    total += partial
    for i in range(2, terms + 1):
        partial *= x / (a + i)
        total += partial
        if partial < tolerance:
            break
    return total


def _eq25(a: float, y: float) -> float:
    """DiDonato-Morris Eq. 25 at ``y = -log(b)``."""
    c1 = (a - 1) * math.log(y)
    c1_2 = c1 * c1
    c1_3 = c1_2 * c1
    c1_4 = c1_2 * c1_2
    a_2 = a * a
    a_3 = a_2 * a
    c2 = (a - 1) * (1 + c1)
    c3 = (a - 1) * (-(c1_2 / 2) + (a - 2) * c1 + (3 * a - 5) / 2)
    c4 = (a - 1) * ((c1_3 / 3) - (3 * a - 5) * c1_2 / 2 + (a_2 - 6 * a + 7) * c1
                    + (11 * a_2 - 46 * a + 47) / 6)
    c5 = (a - 1) * (-(c1_4 / 4) + (11 * a - 17) * c1_3 / 6 + (-3 * a_2 + 13 * a - 13) * c1_2
                    + (2 * a_3 - 25 * a_2 + 72 * a - 61) * c1 / 2
                    + (25 * a_3 - 195 * a_2 + 477 * a - 379) / 12)
    y_2 = y * y
    y_3 = y_2 * y
    y_4 = y_2 * y_2
    return y + c1 + (c2 / y) + (c3 / y_2) + (c4 / y_3) + (c5 / y_4)


def _find_inverse_gamma(a: float, p: float, q: float) -> float:
    """DiDonato and Morris's starting value for x with P(a, x) = p, Q(a, x) = q."""
    if a == 1:
        return -math.log1p(-p) if q > 0.9 else -math.log(q)
    if a < 1:  # a = 1/2, so Eq. 22 and 24, which need a < 0.3, never apply
        g = _gamma(a)
        b = q * g
        if b >= 0.45:
            # Eq. 21 (b > 0.6, or b >= 0.45 when a >= 0.3); the second form keeps q near 0 invertible
            if b * q > 1e-8 and q > 1e-5:
                u = math.pow(p * g * a, 1 / a)
            else:
                u = math.exp((-q / a) - EULER)
            return u / (1 - (u / (a + 1)))
        # Eq. 23
        y = -math.log(b)
        u = y - (1 - a) * math.log(y)
        return y - (1 - a) * math.log(u) - math.log(1 + (1 - a) / (1 + u))
    # Eq. 31
    s = _find_inverse_s(p, q)
    s_2 = s * s
    s_3 = s_2 * s
    s_4 = s_2 * s_2
    s_5 = s_4 * s
    ra = math.sqrt(a)
    w = a + s * ra + (s_2 - 1) / 3
    w += (s_3 - 7 * s) / (36 * ra)
    w -= (3 * s_4 + 7 * s_2 - 16) / (810 * a)
    w += (9 * s_5 + 256 * s_3 - 433 * s) / (38880 * a * ra)
    if a >= 500 and abs(1 - w / a) < 1e-6:
        return w
    if p > 0.5:
        if w < 3 * a:
            return w
        d = max(2.0, a * (a - 1))
        lb = math.log(q) + lgam(a)
        if lb < -d * 2.3:
            return _eq25(a, -lb)
        # Eq. 33
        u = -lb + (a - 1) * math.log(w) - math.log(1 + (1 - a) / (1 + w))
        return -lb + (a - 1) * math.log(u) - math.log(1 + (1 - a) / (1 + u))
    z = w
    ap1 = a + 1
    ap2 = a + 2
    if w < 0.15 * ap1:
        # Eq. 35
        v = math.log(p) + lgam(ap1)
        z = math.exp((v + w) / a)
        s = math.log1p(z / ap1 * (1 + z / ap2))
        z = math.exp((v + z - s) / a)
        s = math.log1p(z / ap1 * (1 + z / ap2))
        z = math.exp((v + z - s) / a)
        s = math.log1p(z / ap1 * (1 + z / ap2 * (1 + z / (a + 3))))
        z = math.exp((v + z - s) / a)
    if z <= 0.01 * ap1 or z > 0.7 * ap1:
        return z
    # Eq. 36
    ls = math.log(_didonato_sn(a, z, 100, 1e-4))
    v = math.log(p) + lgam(ap1)
    z = math.exp((v + z - ls) / a)
    return z * (1 - (a * math.log(z) - z - v + ls) / (a - z))


def _halley(a: float, x: float, residual) -> float:
    """Three Halley steps on ``residual(x) * x / _igam_fac(a, x)``; Newton's
    step where the second-derivative ratio overflows."""
    for _ in range(3):
        fac = _igam_fac(a, x)
        if fac == 0.0:
            return x
        f_fp = residual(x) * x / fac
        fpp_fp = -1.0 + (a - 1) / x
        if math.isinf(fpp_fp):
            x = x - f_fp
        else:
            x = x - f_fp / (1.0 - 0.5 * f_fp * fpp_fp)
    return x


def igami(a: float, p: float) -> float:
    """Cephes ``igami``, ``scipy.special.gammaincinv``: x with P(a, x) = p,
    for ``a = k/2 >= 1/2`` and ``0 <= p <= 1``."""
    _check_shape(a)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"igami needs 0 <= p <= 1, got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    if p > 0.9:
        return igamci(a, 1 - p)
    x = _find_inverse_gamma(a, p, 1 - p)
    return _halley(a, x, lambda x: igam(a, x) - p)


def igamci(a: float, q: float) -> float:
    """Cephes ``igamci``, ``scipy.special.gammainccinv``: x with Q(a, x) = q,
    for ``a = k/2 >= 1/2`` and ``0 <= q <= 1``."""
    _check_shape(a)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"igamci needs 0 <= q <= 1, got {q}")
    if q == 0.0:
        return math.inf
    if q == 1.0:
        return 0.0
    if q > 0.9:
        return igami(a, 1 - q)
    x = _find_inverse_gamma(a, 1 - q, q)
    return _halley(a, x, lambda x: -(igamc(a, x) - q))
