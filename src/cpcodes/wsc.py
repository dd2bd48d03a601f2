"""Shape-gain rate allocation for sizing subcodebooks across spheres.

A gain codebook is fit to the norm of the Gaussian source (a scaled chi
distribution), then the shape-versus-gain rate split and per-gain shape
subcodebook sizes follow in closed form, for variable-rate and fixed-rate
coding.  The resulting real-valued size targets pick the compositions of the
concentric permutation code, whose levels are then optimized by the general
Lloyd design.  All constants are evaluated in the log-gamma domain so large
block lengths do not overflow.

The chi law's CDF, its inverse, log-gamma and digamma come from
:mod:`cpcodes.cephes`, bit for bit the ``scipy.special`` routines, so a wsc
design writes the bytes scipy would give without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cephes, evaluation
from .combinatorics import (
    Composition,
    ResourceLimitError,
    enumerate_compositions,
    multinomial_size,
    partition_count,
    partitions,
)
from .codec import VARIANT_I, VARIANT_II, ConcentricCode
from .design import DesignConfig, DesignInfeasibleError, lloyd_general_code
from .order_stats import gaussian_order_stats

LATTICE_SECOND_MOMENTS = {
    "scalar": 1.0 / 12.0,
    "lambda24": 0.065771,
}

# the gain quantizer's Lloyd-Max loop stops once no cell boundary moves by more than this
_GAIN_TOL = 1e-10
_GAIN_MAX_ITERS = 10_000


class RateTooLowError(DesignInfeasibleError):
    """Requested total rate leaves no budget for one of the two stages."""


@dataclass(frozen=True)
class GainCodebook:
    """Quantizer for the vector norm: levels ascending, with cell probabilities."""

    gains: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "probs", probs)
        if len(gains) != len(probs):
            raise ValueError("gains and probs must align")
        if any(g <= 0 for g in gains) or any(a >= b for a, b in zip(gains, gains[1:])):
            raise ValueError("gains must be positive and strictly increasing")
        if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
            raise ValueError("probs must be nonnegative and sum to 1")

    @property
    def J(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class WscConstants:
    n: int
    g_lambda: float
    sigma: float
    c: float
    c_s: float
    c_g: float


@dataclass(frozen=True)
class RateSplit:
    rate: float
    shape_rate: float
    gain_rate: float


def _chi_cdf(r: np.ndarray, k: int) -> np.ndarray:
    """CDF at each ``r >= 0`` of the chi distribution with ``k`` degrees of freedom."""
    a = 0.5 * k
    return np.array([cephes.igam(a, 0.5 * (v * v)) for v in r.tolist()])


def _chi_ppf(q: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_chi_cdf` at each ``q`` in [0, 1]."""
    a = 0.5 * k
    return np.sqrt(2 * np.array([cephes.igami(a, p) for p in q.tolist()]))


def _chi_mean(n: int) -> float:
    return math.sqrt(2.0) * math.exp(cephes.lgam((n + 1) / 2.0) - cephes.lgam(n / 2.0))


def gain_codebook(J: int, n: int, sigma: float = 1.0) -> GainCodebook:
    """Lloyd-Max quantizer for the norm of n i.i.d. N(0, sigma^2) variates.

    Cell masses and conditional means use the chi CDF identities (the first
    moment over a cell is the chi mean times a CDF difference at n+1 degrees
    of freedom), so the fixed point is deterministic to quadrature accuracy.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = _chi_mean(n)
    if J == 1:
        return GainCodebook((mean * sigma,), (1.0,))

    def cond_means(bounds):
        # each CDF once at all J+1 bounds; a cell's mass is the difference of its two
        mass = np.diff(_chi_cdf(bounds, n))
        if np.any(mass <= 0):
            raise RuntimeError("empty gain cell; J too large for this dimension")
        # r * f_n(r) integrates to the chi mean times the (n+1)-dof CDF increment
        return mean * np.diff(_chi_cdf(bounds, n + 1)) / mass, mass

    bounds = _chi_ppf(np.linspace(0.0, 1.0, J + 1), n)
    for _ in range(_GAIN_MAX_ITERS):
        gains, probs = cond_means(bounds)
        new_inner = (gains[:-1] + gains[1:]) / 2.0
        delta = float(np.max(np.abs(new_inner - bounds[1:-1])))
        bounds[1:-1] = new_inner
        if delta <= _GAIN_TOL:
            gains, probs = cond_means(bounds)
            return GainCodebook(tuple(gains * sigma), tuple(probs))
    raise RuntimeError(f"gain quantizer did not converge within {_GAIN_MAX_ITERS} iterations")


def wsc_constants(n: int, g_lambda: float, sigma: float = 1.0) -> WscConstants:
    """Distortion constants of the wrapped-spherical shape and gain stages."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not all(math.isfinite(v) and v > 0 for v in (g_lambda, sigma)):
        raise ValueError(f"g_lambda and sigma must be positive and finite, got {g_lambda} and {sigma}")
    log_sphere_area = math.log(2.0) + (n / 2.0) * math.log(math.pi) - cephes.lgam(n / 2.0)
    log_c = math.log((n - 1.0) / n) + math.log(g_lambda) + (2.0 / (n - 1.0)) * log_sphere_area
    c = math.exp(log_c)
    c_s = c * 2.0 * sigma * sigma * math.exp(cephes.psi(n / 2.0))
    log_c_g = (
        2.0 * math.log(sigma)
        + (n / 2.0) * math.log(3.0)
        + 3.0 * cephes.lgam((n + 2.0) / 6.0)
        - math.log(8.0 * n)
        - cephes.lgam(n / 2.0)
    )
    return WscConstants(n=n, g_lambda=g_lambda, sigma=sigma, c=c, c_s=c_s, c_g=math.exp(log_c_g))


def optimal_rate_split(R: float, consts: WscConstants) -> RateSplit:
    """Split a total rate (bits/sample) between shape and gain stages.

    The identity shape + gain = R is enforced algebraically: the gain share is
    computed as the remainder.
    """
    n = consts.n
    log_term = math.log2(consts.c_s / consts.c_g / (n - 1.0))
    shape = ((n - 1.0) / n) * (R + log_term / (2.0 * n))
    gain = R - shape
    direct_gain = (R - (n - 1.0) / (2.0 * n) * log_term) / n
    if abs(gain - direct_gain) > 1e-9 * max(1.0, abs(R)):
        raise AssertionError("rate split identities disagree beyond roundoff")
    if shape <= 0 or gain <= 0:
        raise RateTooLowError(
            f"rate {R} bits/sample is too low for the high-resolution split "
            f"(shape {shape:.4f}, gain {gain:.4f})"
        )
    return RateSplit(rate=float(R), shape_rate=shape, gain_rate=gain)


def sizes_variable_rate(split: RateSplit, gc: GainCodebook, n: int) -> np.ndarray:
    """Real-valued shape subcodebook sizes meeting the average-log-size budget.

    Sizes scale as gain^(n-1); the probability-weighted log2 sizes sum to
    n times the shape rate.
    """
    gains = np.asarray(gc.gains)
    probs = np.asarray(gc.probs)
    log_gain_mean = float(probs @ np.log2(gains))
    log_sizes = (n - 1.0) * np.log2(gains) + n * split.shape_rate - (n - 1.0) * log_gain_mean
    return np.exp2(log_sizes)


def sizes_fixed_rate(R: float, gc: GainCodebook, n: int) -> np.ndarray:
    """Real-valued subcodebook sizes with total exactly 2**(nR).

    Each size is proportional to (p_j g_j^2)^((n-1)/(n+1)).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    weights = (np.asarray(gc.probs) * np.asarray(gc.gains) ** 2) ** ((n - 1.0) / (n + 1.0))
    return 2.0 ** (n * R) * weights / weights.sum()


def shape_distortion_highres(
    gc: GainCodebook, sizes: Sequence[float], consts: WscConstants
) -> float:
    """High-resolution shape distortion for given per-gain subcodebook sizes."""
    sizes = np.asarray(sizes, dtype=float)
    if np.any(sizes <= 0):
        raise ValueError("sizes must be positive")
    gains = np.asarray(gc.gains)
    probs = np.asarray(gc.probs)
    return float(consts.c * np.sum(probs * gains**2 * sizes ** (-2.0 / (consts.n - 1.0))))


def snr_improvement_db(n: int) -> float:
    """SNR gained by letting the shape codebook size depend on the gain (dB)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return -10.0 * (1.0 - 1.0 / n) * math.log10(2.0 * math.exp(cephes.psi(n / 2.0)) / n)


def gain_distortion(gc: GainCodebook, n: int, sigma: float = 1.0) -> float:
    """Per-sample MSE of the gain stage alone, in closed form.

    Uses the chi moment identities: over a cell, the first moment is the chi
    mean times the (n+1)-dof CDF increment and the second moment is n times
    the (n+2)-dof increment.
    """
    gains = np.asarray(gc.gains) / sigma
    bounds = np.concatenate(([0.0], (gains[:-1] + gains[1:]) / 2.0, [np.inf]))
    f0 = np.diff(_chi_cdf(bounds, n))
    f1 = np.diff(_chi_cdf(bounds, n + 1))
    f2 = np.diff(_chi_cdf(bounds, n + 2))
    mean = _chi_mean(n)
    per_cell = n * f2 - 2.0 * gains * mean * f1 + gains * gains * f0
    return float(per_cell.sum()) * sigma * sigma / n


def highres_fixed_rate_model(
    n: int, J: int, rates, g_lambda: float, sigma: float = 1.0
) -> list[tuple[float, float]]:
    """Model (rate, distortion) curve for fixed-rate coding with J gain cells.

    Shape distortion follows the proportional-size decay constant; gain
    distortion is the rate-independent floor of the J-level gain quantizer.
    Larger J trades a bigger shape constant for a lower floor, so curves for
    different J cross as the rate grows.
    """
    consts = wsc_constants(n, g_lambda, sigma)
    gc = gain_codebook(J, n, sigma)
    p = np.asarray(gc.probs)
    g = np.asarray(gc.gains)
    shape_const = consts.c * float(np.sum((p * g * g) ** ((n - 1.0) / (n + 1.0)))) ** (
        (n + 1.0) / (n - 1.0)
    )
    floor = gain_distortion(gc, n, sigma)
    return [(float(r), shape_const * 2.0 ** (-2.0 * n / (n - 1.0) * float(r)) + floor)
            for r in rates]


# ---------------------------------------------------------------------------
# composition selection and end-to-end design


def allocate_compositions(
    n: int,
    targets: Sequence[float],
    variant: int = VARIANT_I,
    filt: str | None = None,
    limit: int = 1 << 22,
) -> list[Composition]:
    """Pick, for each size target, the composition whose exact codebook size is
    nearest in log2.  Ties prefer fewer levels, then lexicographically smaller
    parts.  Sign-carrying sizes count the full 2**n sign factor, since
    designed level values are strictly positive.

    With ``filt="none"`` the part order carries no heuristic and does not
    change the size, so candidates are the partition-canonical (descending)
    arrangements.
    """
    if filt is None:
        filt = "variant1_unimodal" if variant == VARIANT_I else "variant2_monotone"
    sign_bits = n if variant == VARIANT_II else 0
    if filt == "none":
        if partition_count(n) > limit:
            raise ResourceLimitError(f"partition enumeration for n={n} exceeds limit={limit}")
        pool = (Composition(p) for p in partitions(n))
    else:
        pool = enumerate_compositions(n, filt)
    candidates = []
    for comp in pool:
        log_size = math.log2(multinomial_size(comp)) + sign_bits
        candidates.append((log_size, comp.num_levels, comp.parts, comp))
    out = []
    for target in targets:
        if not target > 0:
            raise ValueError(f"size target must be positive, got {target}")
        goal = math.log2(target)
        best = min(candidates, key=lambda item: (abs(item[0] - goal), item[1], item[2]))
        out.append(best[3])
    return out


@dataclass
class WscDesignResult:
    code: ConcentricCode
    iterations: int  # Lloyd rounds of the level design
    rate: float
    distortion: float
    report: dict


def _finish_design(R, cfg, table, gc, targets, filt, fixed_rate, extra_report):
    """Compositions for the size ``targets``, their Lloyd levels, and the
    measured rate and distortion of the resulting code."""
    comps = allocate_compositions(table.n, targets, cfg.variant, filt)
    designed, iterations = lloyd_general_code(comps, cfg, table.sigma)
    measured = evaluation.empirical_distortion(
        designed, cfg.sample_count, cfg.rng_seed, sigma=table.sigma
    )
    code = ConcentricCode(designed.subcodes, probs=measured.probs)
    if fixed_rate:
        rate = evaluation.rate_fixed(code)
    else:
        rate = evaluation.rate_variable(code, measured.probs)
    report = {
        "inputs": {"n": table.n, "J": cfg.J, "rate": R, "variant": cfg.variant,
                   "sigma": table.sigma},
        "gains": list(gc.gains),
        "probs": list(gc.probs),
        "M_targets": [float(t) for t in targets],
        "chosen_compositions": [list(c.parts) for c in comps],
        "achieved_rate": rate,
        "empirical_D": measured.distortion,
        "stderr": measured.stderr,
        "seed": cfg.rng_seed,
    }
    report.update(extra_report)
    if abs(rate - R) > 0.5:
        report["rate_deviation"] = rate - R
    return WscDesignResult(
        code=code,
        iterations=iterations,
        rate=rate,
        distortion=measured.distortion,
        report=report,
    )


def design_variable_rate(
    n: int,
    R: float,
    cfg: DesignConfig,
    sigma: float = 1.0,
    g_lambda: float = LATTICE_SECOND_MOMENTS["scalar"],
    filt: str | None = None,
) -> WscDesignResult:
    """Variable-rate design of ``cfg.J`` spheres at ``R`` bits/sample: rate
    split, size targets, compositions, Lloyd."""
    table = gaussian_order_stats(n, sigma)
    consts = wsc_constants(n, g_lambda, sigma)
    gc = gain_codebook(cfg.J, n, sigma)
    split = optimal_rate_split(R, consts)
    targets = sizes_variable_rate(split, gc, n)
    extra = {"shape_rate": split.shape_rate, "gain_rate": split.gain_rate, "g_lambda": g_lambda}
    return _finish_design(R, cfg, table, gc, targets, filt, False, extra)


def design_fixed_rate(
    n: int,
    R: float,
    cfg: DesignConfig,
    sigma: float = 1.0,
    filt: str | None = None,
) -> WscDesignResult:
    """Fixed-rate design of ``cfg.J`` spheres at ``R`` bits/sample: size
    targets straight from the gain codebook."""
    table = gaussian_order_stats(n, sigma)
    gc = gain_codebook(cfg.J, n, sigma)
    targets = sizes_fixed_rate(R, gc, n)
    return _finish_design(R, cfg, table, gc, targets, filt, True, {})
