"""Moments of Gaussian and folded-Gaussian order statistics.

Indexing convention: position 0 of every table is the LARGEST order statistic
(descending order).  This matches the strictly decreasing level values of an
initial codeword, so level i always pairs with table slot i ranges without an
index reversal.

Moments are computed by composite Gauss-Legendre quadrature of the
order-statistic density, evaluated in the log domain so the binomial front
factors never overflow.  Tables are cached per (n, tol) at unit variance and
rescaled, since the Gaussian family is closed under scaling.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .combinatorics import Composition, group_starts

DEFAULT_TOL = 1e-10

_TAIL_SIGMAS = 8.5  # integration window half-width; tail mass is < 1e-16 per variate
_BASE_PANELS = 64
_GL_ORDER = 24
_MAX_REFINEMENTS = 3


class IntegrationError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, residual: float, message: str):
        super().__init__(f"{message} (worst residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class OrderStatTable:
    """First and second moments of the sorted source and its magnitudes."""

    n: int
    sigma: float
    mean_xi: np.ndarray
    second_xi: np.ndarray
    mean_eta: np.ndarray
    second_eta: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fp:
            fp.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("l,E_xi,E_xi2,E_eta,E_eta2\n")
        for i in range(self.n):
            out.write(
                f"{i + 1},{float(self.mean_xi[i])!r},{float(self.second_xi[i])!r},"
                f"{float(self.mean_eta[i])!r},{float(self.second_eta[i])!r}\n"
            )
        return out.getvalue()

    @classmethod
    def from_csv(cls, path) -> "OrderStatTable":
        with open(path, newline="") as fp:
            rows = list(csv.DictReader(fp))
        mean_xi = np.array([float(r["E_xi"]) for r in rows])
        second_xi = np.array([float(r["E_xi2"]) for r in rows])
        mean_eta = np.array([float(r["E_eta"]) for r in rows])
        second_eta = np.array([float(r["E_eta2"]) for r in rows])
        n = len(rows)
        # the per-coordinate energy identity pins sigma, so it need not be stored
        sigma = math.sqrt(float(second_xi.sum()) / n)
        return cls(n, sigma, *(np.asarray(a) for a in (mean_xi, second_xi, mean_eta, second_eta)))


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
    ranks = np.arange(1, n + 1)  # 1 = largest
    log_front = (
        special.gammaln(n + 1)
        - special.gammaln(ranks)
        - special.gammaln(n - ranks + 1)
    )
    below = (n - ranks)[:, None].astype(float)
    above = (ranks - 1)[:, None].astype(float)
    # 0 * (-inf) at support edges must contribute 0, not nan
    with np.errstate(invalid="ignore"):
        term_below = np.where(below == 0.0, 0.0, below * log_cdf[None, :])
        term_above = np.where(above == 0.0, 0.0, above * log_sf[None, :])
    density = np.exp(log_front[:, None] + term_below + term_above + log_pdf[None, :])
    mass = density @ w
    mean = density @ (w * x)
    second = density @ (w * x * x)
    return mean, second, mass


def _integrate(n, lo, hi, log_parts_fn, tol):
    panels = _BASE_PANELS
    worst = math.inf
    for _ in range(_MAX_REFINEMENTS + 1):
        results = []
        for p in (panels, 2 * panels):
            x, w = _gl_rule(p, lo, hi)
            results.append(_descending_moments(n, x, w, *log_parts_fn(x)))
        (m1, s1, mass1), (m2, s2, mass2) = results
        worst = max(
            float(np.max(np.abs(m1 - m2))),
            float(np.max(np.abs(s1 - s2))),
            float(np.max(np.abs(mass2 - 1.0))),
        )
        if worst <= tol:
            return m2, s2
        panels *= 2
    raise IntegrationError(worst, f"order-statistic quadrature did not reach tol={tol}")


def _gaussian_log_parts(x):
    log_pdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    return special.log_ndtr(x), special.log_ndtr(-x), log_pdf


def _folded_log_parts(x):
    # parent is |Z| for standard normal Z: F(x) = erf(x/sqrt(2)), f(x) = 2*phi(x);
    # the survival side goes through erfc to keep precision deep in the tail
    z = x / math.sqrt(2.0)
    with np.errstate(divide="ignore"):
        log_cdf = np.log(special.erf(z))
        log_sf = np.log(special.erfc(z))
    log_pdf = math.log(2.0) - 0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    return log_cdf, log_sf, log_pdf


@lru_cache(maxsize=None)
def _unit_table(n: int, tol: float):
    mean_xi, second_xi = _integrate(n, -_TAIL_SIGMAS, _TAIL_SIGMAS, _gaussian_log_parts, tol)
    mean_eta, second_eta = _integrate(n, 0.0, _TAIL_SIGMAS, _folded_log_parts, tol)
    return tuple(_freeze(a) for a in (mean_xi, second_xi, mean_eta, second_eta))


def _build_table(n: int, sigma: float, tol: float) -> OrderStatTable:
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mean_xi, second_xi, mean_eta, second_eta = _unit_table(n, float(tol))
    return OrderStatTable(
        n=n,
        sigma=float(sigma),
        mean_xi=_freeze(mean_xi * sigma),
        second_xi=_freeze(second_xi * sigma * sigma),
        mean_eta=_freeze(mean_eta * sigma),
        second_eta=_freeze(second_eta * sigma * sigma),
    )


def gaussian_order_stats(n: int, sigma: float = 1.0, tol: float = DEFAULT_TOL) -> OrderStatTable:
    """Order-statistic moment table for n i.i.d. N(0, sigma^2) variates."""
    return _build_table(n, sigma, tol)


def folded_order_stats(n: int, sigma: float = 1.0, tol: float = DEFAULT_TOL) -> OrderStatTable:
    """The same table as :func:`gaussian_order_stats`, which holds the magnitude
    (eta) moments too; kept as a name for callers that read those."""
    return _build_table(n, sigma, tol)


def grouped_projection(x_sorted: np.ndarray, c: Composition) -> np.ndarray:
    """Per-group sums of a descending-sorted vector, scaled by 1/sqrt(group size).

    Accepts a single vector or a batch with vectors along the last axis.
    """
    x = np.asarray(x_sorted, dtype=float)
    if x.shape[-1] != c.n:
        raise ValueError(f"last axis has length {x.shape[-1]}, composition needs {c.n}")
    if np.any(np.diff(x, axis=-1) > 0):
        raise ValueError("input must be sorted in descending order along the last axis")
    starts = group_starts(c)
    sums = np.add.reduceat(x, starts, axis=-1)
    return sums / np.sqrt(np.asarray(c.parts, dtype=float))
