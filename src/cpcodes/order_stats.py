"""Moments of Gaussian and folded-Gaussian order statistics.

Indexing convention: position 0 of every table is the LARGEST order statistic
(descending order).  This matches the strictly decreasing level values of an
initial codeword, so level i always pairs with table slot i ranges without an
index reversal.

Moments are computed by composite Gauss-Legendre quadrature of the
order-statistic density, evaluated in the log domain so the binomial front
factors never overflow.  Tables are cached per n at unit variance and
rescaled, since the Gaussian family is closed under scaling.  A table
computes its moments on first read, so a caller that needs only ``n`` and
``sigma`` never runs the quadrature, nor loads the Cephes ports of
:mod:`cpcodes.cephes` that it evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .combinatorics import Composition, group_starts

TOL = 1e-10  # quadrature stops once two panel counts agree this closely

_TAIL_SIGMAS = 8.5  # integration window half-width; tail mass is < 1e-16 per variate
_BASE_PANELS = 64
_GL_ORDER = 24
_MAX_REFINEMENTS = 3


class IntegrationError(RuntimeError):
    """Quadrature failed to reach the tolerance ``TOL``."""


@dataclass(frozen=True)
class OrderStatTable:
    """First and second moments of the sorted source and its magnitudes.

    Each moment array is the unit-variance table of ``n`` scaled by ``sigma``,
    computed the first time it is read and read-only.
    """

    n: int
    sigma: float

    @cached_property
    def mean_xi(self) -> np.ndarray:
        return _freeze(_unit_table(self.n)[0] * self.sigma)

    @cached_property
    def second_xi(self) -> np.ndarray:
        return _freeze(_unit_table(self.n)[1] * self.sigma * self.sigma)

    @cached_property
    def mean_eta(self) -> np.ndarray:
        return _freeze(_unit_table(self.n)[2] * self.sigma)

    @cached_property
    def second_eta(self) -> np.ndarray:
        return _freeze(_unit_table(self.n)[3] * self.sigma * self.sigma)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _gl_rule(panels: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    base_x, base_w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return _freeze(x), _freeze(w)


def _descending_moments(n, x, w, log_cdf, log_sf, log_pdf):
    """Mean and second moment of the l-th largest of n, for all l at once."""
    from .cephes import lgam

    ranks = np.arange(1, n + 1)  # 1 = largest
    lg = np.array([lgam(k) for k in range(1, n + 2)])  # lg[k - 1] = log((k - 1)!)
    log_front = lg[n] - lg[ranks - 1] - lg[n - ranks]
    below = (n - ranks)[:, None].astype(float)
    above = (ranks - 1)[:, None].astype(float)
    # 0 * (-inf) at support edges must contribute 0, not nan
    with np.errstate(invalid="ignore"):
        term_below = np.where(below == 0.0, 0.0, below * log_cdf[None, :])
        term_above = np.where(above == 0.0, 0.0, above * log_sf[None, :])
    density = np.exp(log_front[:, None] + term_below + term_above + log_pdf[None, :])
    # row sums in numpy's fixed order, not a BLAS gemv, whose order is the kernel's
    mass = (density * w).sum(axis=1)
    mean = (density * (w * x)).sum(axis=1)
    second = (density * (w * x * x)).sum(axis=1)
    return mean, second, mass


def _integrate(n, lo, hi, log_parts_fn):
    """Moments at the first doubling of the panel count that moves none, nor
    the mass from 1, by more than ``TOL``; each count is evaluated once."""
    def moments(panels):
        x, w = _gl_rule(panels, lo, hi)
        return _descending_moments(n, x, w, *log_parts_fn(x))

    panels = _BASE_PANELS
    m1, s1, _ = moments(panels)
    worst = math.inf
    for _ in range(_MAX_REFINEMENTS + 1):
        panels *= 2
        m2, s2, mass2 = moments(panels)
        worst = max(
            float(np.max(np.abs(m1 - m2))),
            float(np.max(np.abs(s1 - s2))),
            float(np.max(np.abs(mass2 - 1.0))),
        )
        if worst <= TOL:
            return m2, s2
        m1, s1 = m2, s2
    raise IntegrationError(f"order-statistic quadrature did not reach tol={TOL} "
                           f"(worst residual {worst:.3e})")


def _log_ndtr(x):
    """log Phi(x): the log of ``ndtr`` below -1, where it keeps its relative
    precision, and ``log1p(-erfc(x/sqrt(2))/2)`` from -1 up."""
    from .cephes import _SQRT1_2, erfc, ndtr

    out = np.empty_like(x)
    low = x < -1.0
    out[low] = np.log(ndtr(x[low]))
    out[~low] = np.log1p(-erfc(x[~low] * _SQRT1_2) / 2)
    return out


def _gaussian_log_parts(x):
    log_pdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    return _log_ndtr(x), _log_ndtr(-x), log_pdf


def _folded_log_parts(x):
    # parent is |Z| for standard normal Z: F(x) = erf(x/sqrt(2)), f(x) = 2*phi(x);
    # the survival side goes through erfc to keep precision deep in the tail.
    # Cephes erf(z) is its small-argument rational up to 1 and 1 - erfc(z) above
    from .cephes import _erf_small, erfc

    z = x / math.sqrt(2.0)
    upper = erfc(z)
    with np.errstate(divide="ignore"):
        log_cdf = np.log(np.where(z <= 1.0, _erf_small(z), 1.0 - upper))
        log_sf = np.log(upper)
    log_pdf = math.log(2.0) - 0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    return log_cdf, log_sf, log_pdf


@lru_cache(maxsize=None)
def _unit_table(n: int):
    mean_xi, second_xi = _integrate(n, -_TAIL_SIGMAS, _TAIL_SIGMAS, _gaussian_log_parts)
    mean_eta, second_eta = _integrate(n, 0.0, _TAIL_SIGMAS, _folded_log_parts)
    return tuple(_freeze(a) for a in (mean_xi, second_xi, mean_eta, second_eta))


def gaussian_order_stats(n: int, sigma: float = 1.0) -> OrderStatTable:
    """Order-statistic moment table for n i.i.d. N(0, sigma^2) variates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return OrderStatTable(n=n, sigma=float(sigma))


def folded_order_stats(n: int, sigma: float = 1.0) -> OrderStatTable:
    """The same table as :func:`gaussian_order_stats`, which holds the magnitude
    (eta) moments too; kept as a name for callers that read those."""
    return gaussian_order_stats(n, sigma)


def grouped_projection(x_sorted: np.ndarray, c: Composition) -> np.ndarray:
    """Per-group sums of a descending-sorted vector, scaled by 1/sqrt(group size).

    Accepts a single vector or a batch with vectors along the last axis.
    """
    x = np.asarray(x_sorted, dtype=float)
    if x.shape[-1] != c.n:
        raise ValueError(f"last axis has length {x.shape[-1]}, composition needs {c.n}")
    if np.any(x[..., 1:] > x[..., :-1]):  # np.diff(x) > 0 without the float copy
        raise ValueError("input must be sorted in descending order along the last axis")
    starts = group_starts(c)
    sums = np.add.reduceat(x, starts, axis=-1)
    return sums / np.sqrt(np.asarray(c.parts, dtype=float))
