"""Shape-gain rate allocation for sizing subcodebooks across spheres.

A gain codebook is fit to the norm of the Gaussian source (a scaled chi
distribution), then the shape-versus-gain rate split and per-gain shape
subcodebook sizes follow in closed form, for variable-rate and fixed-rate
coding.  The resulting real-valued size targets pick the compositions of the
concentric permutation code, whose levels are then optimized by the general
Lloyd design.  All constants are evaluated in the log-gamma domain so large
block lengths do not overflow.

The gain codebook solves the Lloyd-Max midpoint conditions by Newton's
method (Max, IRE Trans. IT 1960; Pages and Printems, Monte Carlo Methods
Appl. 2003) in a handful of steps, each a tridiagonal solve in Python
floats, so its bits depend on no BLAS or LAPACK kernel.  The chi law of k
degrees of freedom enters only through P(k/2, x) and Q(k/2, x) at integer
k, which DLMF 8.4 give as finite sums (a Poisson sum for even k,
erfc(sqrt x) plus a finite sum for odd k): :func:`_chi_tails` sums them in
Python floats.  Against mpmath at 40 digits its smaller tail is within
6e-14 relative for k up to 128 and 2.1e-13 up to k = 2000.  A cell's mass
is a difference of upper tails above the median, so the top cells keep
their relative precision.  Log-gamma comes from :mod:`cpcodes.cephes`,
bit for bit ``scipy.special.gammaln``, and erfc from :func:`math.erfc`.
Digamma is needed only at n/2, where it is a finite harmonic sum (DLMF
5.4.14-5.4.15): :func:`_digamma_half` adds it in one :func:`math.fsum`,
within 5e-16 of mpmath for n up to 4096.  A wsc design needs no scipy.
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
    multinomial_size,
    partition_count,
    partitions,
)
from .codec import VARIANT_I, VARIANT_II, ConcentricCode
from .design import DesignConfig, DesignInfeasibleError, lloyd_general_code

LATTICE_SECOND_MOMENTS = {
    "scalar": 1.0 / 12.0,
    "lambda24": 0.065771,
}

# the gain quantizer's Newton solve raises after this many steps
_NEWTON_STEPS = 50
# a chi-tail series stops at the first term below this share of its sum
_EPS = 2.0**-53
_EULER = 0.577215664901532860606512090082402431  # Euler's constant gamma
# a composition search raises past this many partitions of n (n >= 71)
_PARTITION_LIMIT = 1 << 22


class RateTooLowError(DesignInfeasibleError):
    """Requested total rate leaves no budget for one of the two stages."""


class RateTooHighError(DesignInfeasibleError):
    """Requested total rate sets a subcodebook size target past the largest double."""


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
        if not all(0 < g < math.inf for g in gains) or any(a >= b for a, b in zip(gains, gains[1:])):
            raise ValueError("gains must be positive, finite and strictly increasing")
        if not all(0 <= p <= 1 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")


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


def _power_term(k: int, x: float) -> float:
    """x^(k/2) e^-x / Gamma(k/2 + 1) for integer ``k >= 0`` and finite ``x >= 0``.

    A product of k//2 + 1 factors, ``x / (i + k%2/2)`` (or 2 sqrt(x/pi) for
    the half power) each times an equal share of e^-x, so no lgam is needed.
    The factors fall with i; each is taken from the large end while the
    partial product is below 1 and from the small end otherwise, so no
    partial product over- or underflows unless the result does.
    """
    m, odd = divmod(k, 2)
    half = 0.5 * odd
    share = math.exp(-x / (m + 1))
    term = 2.0 * math.sqrt(x / math.pi) * share if odd else share
    lo, hi = 1, m
    while lo <= hi:
        if term < 1.0:
            term *= x / (lo + half) * share
            lo += 1
        else:
            term *= x / (hi + half) * share
            hi -= 1
    return term


def _chi_tails(k: int, x: float) -> tuple[float, float]:
    """P(k/2, x) and Q(k/2, x), the regularized incomplete gamma ratios, so
    that the chi law of ``k`` degrees of freedom has P(k/2, r^2/2) below r.

    For integer k the tails are finite sums (DLMF 8.4).  Below ``x =
    k/2 + 1`` P is its power series, a sum of falling positive terms after
    the front factor :func:`_power_term`.  From there up Q is the finite
    sum of x^s e^-x / Gamma(s+1) over s = k/2 - 1, k/2 - 2, ... >= 0, from
    its largest term down, plus erfc(sqrt x) for odd k.  The other tail is
    1 minus the summed one.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1 and x >= 0.0):
        raise ValueError(f"chi tails need an integer k >= 1 and x >= 0, got {k} and {x}")
    if x == math.inf:
        return 1.0, 0.0
    a = 0.5 * k
    if x < a + 1.0:
        term = total = 1.0
        den = a
        while term > _EPS * total:
            den += 1.0
            term *= x / den
            total += term
        lower = _power_term(k, x) * total
        return lower, 1.0 - lower
    s = a - 1.0
    term = _power_term(k - 2, x) if k >= 2 else 0.0
    upper = 0.0
    while s >= 0.0 and term > _EPS * upper:
        upper += term
        term *= s / x
        s -= 1.0
    if k % 2:
        upper += math.erfc(math.sqrt(x))
    return 1.0 - upper, upper


def _chi_masses(bounds: np.ndarray, k: int) -> np.ndarray:
    """The chi law's mass (``k`` degrees of freedom) between consecutive
    ascending ``bounds``: a difference of upper tails for a cell whose lower
    bound lies above the median, else of lower tails, so that no mass is a
    difference of two values near 1."""
    tails = np.array([_chi_tails(k, 0.5 * (r * r)) for r in bounds.tolist()])
    lower, upper = tails[:, 0], tails[:, 1]
    return np.where(upper[:-1] < 0.5, upper[:-1] - upper[1:], lower[1:] - lower[:-1])


def _digamma_half(n: int) -> float:
    """psi(n/2) for integer ``n >= 1``, one :func:`math.fsum` of the finite
    sum (DLMF 5.4.14-5.4.15): -gamma plus 1/k for k < m at n = 2m, and
    -gamma - ln 4 plus 2/(2k-1) for k <= m at n = 2m + 1."""
    m, odd = divmod(n, 2)
    if odd:
        return math.fsum([-_EULER, -math.log(4.0)] + [2.0 / (2 * k - 1) for k in range(1, m + 1)])
    return math.fsum([-_EULER] + [1.0 / k for k in range(1, m)])


def _chi_mean(n: int) -> float:
    return math.sqrt(2.0) * math.exp(cephes.lgam((n + 1) / 2.0) - cephes.lgam(n / 2.0))


def _equal_mass_bounds(J: int, n: int) -> np.ndarray:
    """The J-1 inner bounds that cut the chi law into J cells of equal mass,
    each bisected on the CDF until its bracket holds no double between its
    ends."""
    def below(r, q):
        return _chi_tails(n, 0.5 * (r * r))[0] < q

    top = 1.0
    while below(top, (J - 1) / J):
        top *= 2.0
    bounds = []
    lo = 0.0
    for i in range(1, J):
        hi = top
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if below(mid, i / J):
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        bounds.append(hi)  # lo stays below the next, larger quantile
    return np.array(bounds)


def _cells(inner: np.ndarray, n: int, mean: float):
    """Each cell's conditional mean and mass for the chi law cut at the
    ``inner`` bounds, or None if a cell is empty.  The first moment over a
    cell is the chi mean times the (n+1)-dof CDF increment."""
    bounds = np.concatenate(([0.0], inner, [np.inf]))
    mass = _chi_masses(bounds, n)
    if not np.all(mass > 0):
        return None
    return mean * _chi_masses(bounds, n + 1) / mass, mass


def _thomas(sub, diag, sup, rhs) -> np.ndarray:
    """Solve the tridiagonal system with diagonal ``diag``, ``sub`` below and
    ``sup`` above it, in Python floats (no BLAS or LAPACK call)."""
    size = len(diag)
    c = [0.0] * size
    d = [0.0] * size
    for i in range(size):
        den = diag[i] - (sub[i - 1] * c[i - 1] if i else 0.0)
        c[i] = sup[i] / den if i < size - 1 else 0.0
        d[i] = (rhs[i] - (sub[i - 1] * d[i - 1] if i else 0.0)) / den
    for i in range(size - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


def gain_codebook(J: int, n: int, sigma: float = 1.0) -> GainCodebook:
    """Lloyd-Max quantizer for the norm of n i.i.d. N(0, sigma^2) variates.

    Newton's method on the J-1 midpoint conditions ``b_i = (g_i + g_{i+1}) /
    2``, g_i the conditional mean of cell i (:func:`_cells`), started from
    equal-mass bounds.  The Jacobian is tridiagonal, from ``dg_i/db_lo =
    f(b_lo) (g_i - b_lo) / p_i`` and ``dg_i/db_hi = f(b_hi) (b_hi - g_i) /
    p_i``, f the chi pdf and p_i the cell's mass, and each step is one
    :func:`_thomas` solve.  A step is halved while it would disorder the
    bounds or empty a cell.  Newton converges quadratically, so once the
    residual is below sqrt(eps) of the largest gain the next step reaches
    the rounding floor of the CDF differences: the solve stops at the first
    step that then no longer halves the residual, keeping the better bounds,
    and raises ``RuntimeError`` after ``_NEWTON_STEPS`` steps.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    mean = _chi_mean(n)
    if J == 1:
        return GainCodebook((mean * sigma,), (1.0,))
    log_pdf_front = (0.5 * n - 1.0) * math.log(2.0) + cephes.lgam(0.5 * n)

    def residual(inner, cells):
        gap = (cells[0][:-1] + cells[0][1:]) / 2.0 - inner
        return gap, float(np.max(np.abs(gap)))

    inner = _equal_mass_bounds(J, n)
    cells = _cells(inner, n, mean)
    if cells is None:
        raise RuntimeError("empty gain cell; J too large for this dimension")
    gap, worst = residual(inner, cells)
    for _ in range(_NEWTON_STEPS):
        gains, mass = cells
        pdf = np.array([math.exp((n - 1) * math.log(b) - 0.5 * b * b - log_pdf_front)
                        for b in inner.tolist()])
        d_lo = pdf * (gains[1:] - inner) / mass[1:]  # cell i+1's mean by its lower bound
        d_hi = pdf * (inner - gains[:-1]) / mass[:-1]  # cell i's mean by its upper bound
        step = _thomas((-0.5 * d_lo[:-1]).tolist(), (1.0 - 0.5 * (d_lo + d_hi)).tolist(),
                       (-0.5 * d_hi[1:]).tolist(), gap.tolist())
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        while True:
            trial = inner + t * step
            if trial[0] > 0 and np.all(trial[1:] > trial[:-1]):
                trial_cells = _cells(trial, n, mean)
                if trial_cells is not None:
                    break
            t *= 0.5
        trial_gap, trial_worst = residual(trial, trial_cells)
        if worst <= math.sqrt(np.finfo(float).eps) * gains[-1] and not trial_worst < worst / 2:
            gains, mass = trial_cells if trial_worst < worst else cells
            return GainCodebook(tuple(gains * sigma), tuple(mass))
        inner, cells, gap, worst = trial, trial_cells, trial_gap, trial_worst
    raise RuntimeError(
        f"gain quantizer did not converge in {_NEWTON_STEPS} Newton steps "
        f"(midpoint residual {worst:.3g})"
    )


def wsc_constants(n: int, g_lambda: float, sigma: float = 1.0) -> WscConstants:
    """Distortion constants of the wrapped-spherical shape and gain stages."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not all(math.isfinite(v) and v > 0 for v in (g_lambda, sigma)):
        raise ValueError(f"g_lambda and sigma must be positive and finite, got {g_lambda} and {sigma}")
    log_sphere_area = math.log(2.0) + (n / 2.0) * math.log(math.pi) - cephes.lgam(n / 2.0)
    log_c = math.log((n - 1.0) / n) + math.log(g_lambda) + (2.0 / (n - 1.0)) * log_sphere_area
    c = math.exp(log_c)
    c_s = c * 2.0 * sigma * sigma * math.exp(_digamma_half(n))
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


def _finite_targets(R: float, targets: np.ndarray) -> np.ndarray:
    """``targets``, or :class:`RateTooHighError` if one is not finite."""
    if not np.all(np.isfinite(targets)):
        raise RateTooHighError(
            f"rate {R} bits/sample is too high: a subcodebook size target "
            "overflows a double"
        )
    return targets


def sizes_variable_rate(split: RateSplit, gc: GainCodebook, n: int) -> np.ndarray:
    """Real-valued shape subcodebook sizes meeting the average-log-size budget.

    Sizes scale as gain^(n-1); the probability-weighted log2 sizes sum to
    n times the shape rate.  Raises :class:`RateTooHighError` if a size
    overflows a double.
    """
    log_gains = np.log2(np.asarray(gc.gains))
    log_gain_mean = 0.0  # added left to right, so no BLAS kernel picks the order
    for p, lg in zip(gc.probs, log_gains.tolist()):
        log_gain_mean += p * lg
    log_sizes = (n - 1.0) * log_gains + n * split.shape_rate - (n - 1.0) * log_gain_mean
    with np.errstate(over="ignore"):
        return _finite_targets(split.rate, np.exp2(log_sizes))


def sizes_fixed_rate(R: float, gc: GainCodebook, n: int) -> np.ndarray:
    """Real-valued subcodebook sizes with total exactly 2**(nR).

    Each size is proportional to (p_j g_j^2)^((n-1)/(n+1)).  Raises
    :class:`RateTooHighError` if a size overflows a double.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    weights = (np.asarray(gc.probs) * np.asarray(gc.gains) ** 2) ** ((n - 1.0) / (n + 1.0))
    total = 2.0 ** (n * R) if n * R < 1024.0 else math.inf  # 2.0 ** 1024 raises OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_targets(R, total * weights / weights.sum())


def snr_improvement_db(n: int) -> float:
    """SNR gained by letting the shape codebook size depend on the gain (dB)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return -10.0 * (1.0 - 1.0 / n) * math.log10(2.0 * math.exp(_digamma_half(n)) / n)


# ---------------------------------------------------------------------------
# composition selection and end-to-end design


# each filter's arrangement of a partition's descending parts p: the
# lexicographically smallest arrangement of them that the filter keeps
_ARRANGEMENTS = {
    "none": lambda p: p,
    "variant2_monotone": lambda p: p[::-1],
    "variant1_unimodal": lambda p: p[::-1][: len(p) // 2] + p[: len(p) - len(p) // 2],
}


def allocate_compositions(
    n: int,
    targets: Sequence[float],
    variant: int = VARIANT_I,
    filt: str | None = None,
) -> list[Composition]:
    """Pick, for each size target, the composition whose exact codebook size is
    nearest in log2.  Ties prefer fewer levels, then lexicographically smaller
    parts, which no two candidates share, so the pick does not depend on the
    order the candidates come in.  Sign-carrying sizes count the full 2**n
    sign factor, since designed level values are strictly positive.

    A codebook's size depends only on its parts' multiset, a partition of
    ``n``, so the candidates are the partitions, each in its filter's
    ``_ARRANGEMENTS`` row (by default unimodal for variant I, monotone for
    II): ``"none"`` descending, ``"variant2_monotone"`` ascending, and
    ``"variant1_unimodal"`` the ``K // 2`` smallest parts ascending, then the
    rest descending.  Each is the least composition its filter keeps, so the
    pick is the one over every composition it keeps.  More than
    ``_PARTITION_LIMIT`` partitions (n >= 71) raise before any is made.  The
    partitions are walked once, keeping only each target's best so far.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if filt is None:
        filt = "variant1_unimodal" if variant == VARIANT_I else "variant2_monotone"
    if filt not in _ARRANGEMENTS:
        raise ValueError(f"unknown filter {filt!r}; expected one of {tuple(_ARRANGEMENTS)}")
    if partition_count(n) > _PARTITION_LIMIT:
        raise ResourceLimitError(f"partition enumeration for n={n} exceeds limit={_PARTITION_LIMIT}")
    for target in targets:
        if not target > 0:
            raise ValueError(f"size target must be positive, got {target}")
    goals = [math.log2(target) for target in targets]
    arrange = _ARRANGEMENTS[filt]
    sign_bits = n if variant == VARIANT_II else 0
    best = [None] * len(goals)
    for parts in partitions(n):
        size = math.log2(multinomial_size(parts)) + sign_bits
        arranged = arrange(parts)
        for i, goal in enumerate(goals):
            key = (abs(size - goal), len(parts), arranged)
            if best[i] is None or key < best[i]:
                best[i] = key
    return [Composition(key[2]) for key in best]


@dataclass
class WscDesignResult:
    code: ConcentricCode
    iterations: int  # Lloyd rounds of the level design
    rate: float
    distortion: float
    report: dict


def _finish_design(R, cfg, n, sigma, gc, targets, filt, fixed_rate, extra_report):
    """Compositions for the size ``targets``, their Lloyd levels, and the
    measured rate and distortion of the resulting code."""
    comps = allocate_compositions(n, targets, cfg.variant, filt)
    designed, iterations = lloyd_general_code(comps, cfg, sigma)
    measured = evaluation.empirical_distortion(
        designed, cfg.sample_count, cfg.rng_seed, sigma=sigma
    )
    code = ConcentricCode(designed.subcodes, probs=measured.probs)
    if fixed_rate:
        rate = evaluation.rate_fixed(code)
    else:
        rate = evaluation.rate_variable(code, measured.probs)
    report = {
        "inputs": {"n": n, "J": cfg.J, "rate": R, "variant": cfg.variant, "sigma": float(sigma)},
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
    gc = gain_codebook(cfg.J, n, sigma)
    consts = wsc_constants(n, g_lambda, sigma)
    split = optimal_rate_split(R, consts)
    targets = sizes_variable_rate(split, gc, n)
    extra = {"shape_rate": split.shape_rate, "gain_rate": split.gain_rate, "g_lambda": g_lambda}
    return _finish_design(R, cfg, n, sigma, gc, targets, filt, False, extra)


def design_fixed_rate(
    n: int,
    R: float,
    cfg: DesignConfig,
    sigma: float = 1.0,
    filt: str | None = None,
) -> WscDesignResult:
    """Fixed-rate design of ``cfg.J`` spheres at ``R`` bits/sample: size
    targets straight from the gain codebook."""
    gc = gain_codebook(cfg.J, n, sigma)
    targets = sizes_fixed_rate(R, gc, n)
    return _finish_design(R, cfg, n, sigma, gc, targets, filt, True, {})
