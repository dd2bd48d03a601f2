"""Ports of the Cephes special functions behind ``scipy.special`` whose
bits the codec's outputs pin, each bit for bit the compiled routine.

* :func:`ndtr` (``scipy.special.ndtr``) and :func:`erfc`
  (``scipy.special.erfc``, for arguments above -1) are Cephes ``ndtr`` and
  ``erfc``, vectorised over a numpy array, with one set of coefficient
  tables (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
  1989).  The baselines and the order-statistic moment tables read them.
* :func:`lgam` (``gammaln``) takes any positive argument.

These three are all that remain: the golden baseline rows and the moment
tables' test against scipy (``test_tables_match_scipy``) pin their bits.
The wsc designer needs no port beyond :func:`lgam`; it sums digamma at n/2
and the chi law as finite series and takes erfc of one float from
:func:`math.erfc` (:mod:`cpcodes.wsc`).

Bit identity rests on two rules.  ``exp`` and ``log`` go through
:mod:`math`, which calls the same libm as the compiled code (numpy's
vectorised exp and log differ from libm in the last bit for some
arguments).  Polynomials are evaluated in Cephes ``polevl``/``p1evl``
order, one rounded multiply and one rounded add per step.
"""

from __future__ import annotations

import math

import numpy as np

MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = math.sqrt(0.5)


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


def erfc(z):
    """Cephes ``erfc``, ``scipy.special.erfc``, of every element ``z > -1``
    (or NaN) of a float array."""
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
    y = 0.5 * erfc(z[big])
    out[big] = np.where(x[big] > 0, 1.0 - y, y)
    return out


# ---------------------------------------------------------------------------
# log-gamma

# lgam: Stirling correction A(1/x^2)/x for x >= 13, x B(x)/C(x) on [2, 3)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


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
