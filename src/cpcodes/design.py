"""Level and composition optimization for single- and multi-sphere codebooks.

Two Lloyd variants are provided.  With one shared composition the search
collapses to a J-point vector quantizer on the scaled group sums of the
sorted source (dimension K instead of n); with arbitrary per-sphere
compositions the full-dimension alternation between nearest-subcode
partitioning and conditional group means is used.  Both record their
distortion trajectory and are reproducible from (seed, sample_count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import Composition, group_starts, index_groups
from .codec import (
    VARIANT_I,
    VARIANT_II,
    ConcentricCode,
    InitialCodeword,
    nearest_subcode,
    sort_by_variant,
    subcode_distances,
)
from .order_stats import OrderStatTable, grouped_projection
from .streams import substream


class DesignInfeasibleError(RuntimeError):
    """The requested design cannot be produced from the given parameters."""


LLOYD_REL_TOL = 1e-6  # stop once a round lowers distortion by less than this fraction
LLOYD_MAX_ITERS = 200


@dataclass(frozen=True)
class DesignConfig:
    J: int
    variant: int = VARIANT_I
    sample_count: int = 500_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if self.variant not in (VARIANT_I, VARIANT_II):
            raise ValueError("variant must be 1 or 2")
        if self.sample_count < 10_000:
            raise ValueError("sample_count must be >= 10000")


@dataclass(frozen=True)
class ReducedVQ:
    """Representation points of the reduced K-dimensional quantizer."""

    points: np.ndarray  # (J, K), scaled coordinates sqrt(n_i) * mu_i^j

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a (J, K) array")
        if len({tuple(row) for row in pts}) != pts.shape[0]:
            raise ValueError("representation points must be distinct")
        object.__setattr__(self, "points", pts)

    @property
    def K(self) -> int:
        return self.points.shape[1]

    @property
    def J(self) -> int:
        return self.points.shape[0]


@dataclass
class LloydResult:
    code: ConcentricCode
    distortion: float
    distortion_history: list[float]
    iterations: int
    converged: bool
    probs: tuple[float, ...]
    empty_cell_events: int = 0
    merged_levels: bool = False
    reduced: ReducedVQ | None = None
    seed: int = 0
    sample_count: int = 0


def optimal_levels_single(
    c: Composition, table: OrderStatTable, variant: int = VARIANT_I
) -> InitialCodeword:
    """Distortion-minimizing levels of a single permutation codebook: each level
    is the mean of its group's order-statistic means."""
    if table.n != c.n:
        raise ValueError(f"table is for n={table.n}, composition needs n={c.n}")
    means = table.mean_eta if variant == VARIANT_II else table.mean_xi
    levels = tuple(float(means[g].mean()) for g in index_groups(c))
    if any(a <= b for a, b in zip(levels, levels[1:])):
        raise DesignInfeasibleError(
            f"computed levels {levels} are not strictly decreasing; "
            "the moment table looks inconsistent"
        )
    return InitialCodeword(c, levels, variant)


def pc_distortion_exact(cw: InitialCodeword, table: OrderStatTable) -> float:
    """Per-sample distortion of a single permutation codebook, from moments."""
    if table.n != cw.n:
        raise ValueError(f"table is for n={table.n}, codeword needs n={cw.n}")
    if cw.variant == VARIANT_II:
        first, second = table.mean_eta, table.second_eta
    else:
        first, second = table.mean_xi, table.second_xi
    total = 0.0
    for mu, g in zip(cw.levels, index_groups(cw.composition)):
        total += float(second[g].sum() - 2.0 * mu * first[g].sum() + len(g) * mu * mu)
    return total / cw.n


def _draw_training(cfg: DesignConfig, n: int, sigma: float):
    rng = substream(cfg.rng_seed, "design")
    x = rng.standard_normal((cfg.sample_count, n)) * sigma
    init_rows = rng.choice(cfg.sample_count, size=cfg.J, replace=False)
    return x, init_rows


def _settled(history: list[float]) -> bool:
    """Whether the last Lloyd round lowered distortion by less than LLOYD_REL_TOL."""
    return len(history) > 1 and history[-2] - history[-1] < LLOYD_REL_TOL * max(
        history[-1], 1e-300
    )


def _cell_means(cells: Sequence[np.ndarray], assign: np.ndarray, mind: np.ndarray):
    """One Lloyd centroid update: the mean of the rows of ``cells[j]`` that
    ``assign`` puts in cell j, for each j.

    An empty cell is reseeded at the worst-quantized row by ``mind``, the next
    worst for each further empty cell, so reseeds stay distinct; that order is
    sorted only when a cell is empty.  Returns the means and the number of
    empty cells.

    ``take`` gathers the rows a boolean mask would, in the same order, so each
    mean rounds as ``points[assign == j].mean(axis=0)`` does.  A weighted
    bincount per column would not: numpy sums a one-column cell pairwise.
    """
    means = []
    empty = 0
    worst = None
    for j, points in enumerate(cells):
        rows = np.flatnonzero(assign == j)
        if len(rows):
            means.append(points.take(rows, axis=0).mean(axis=0))
            continue
        if worst is None:
            worst = iter(np.argsort(-mind))
        empty += 1
        means.append(points[int(next(worst))])
    return means, empty


def _merge_nonincreasing(parts: Sequence[int], levels: Sequence[float]):
    """Pool adjacent groups until levels are strictly decreasing (left to right)."""
    parts = list(parts)
    levels = list(levels)
    merged = False
    i = 0
    while i < len(levels) - 1:
        if levels[i] > levels[i + 1]:
            i += 1
            continue
        pooled = (parts[i] * levels[i] + parts[i + 1] * levels[i + 1]) / (
            parts[i] + parts[i + 1]
        )
        parts[i] += parts.pop(i + 1)
        levels[i] = pooled
        levels.pop(i + 1)
        merged = True
        i = max(i - 1, 0)
    return tuple(parts), tuple(levels), merged


def _codeword_from_levels(parts, levels, variant) -> tuple[InitialCodeword, bool]:
    parts, levels, merged = _merge_nonincreasing(parts, levels)
    if variant == VARIANT_II:
        levels = tuple(max(v, 0.0) for v in levels)
    return InitialCodeword(Composition(parts), levels, variant), merged


def distortion_decomposition(code: ConcentricCode, x: np.ndarray):
    """Direct distortion and its split into reduced-space, energy, and projection terms.

    Only meaningful when every subcode shares one composition.  Returns
    ``(direct, decomposed)`` per-sample distortions; the two agree up to
    floating-point roundoff.
    """
    s = sort_by_variant(np.asarray(x, dtype=float), code.variant)
    return _decomposition(code, s, subcode_distances(s, code))


def _decomposition(code: ConcentricCode, s: np.ndarray, dists: np.ndarray):
    """:func:`distortion_decomposition` of the sorted samples ``s``, whose
    subcode distances ``dists`` are already known."""
    c = code.subcodes[0].composition
    if any(cw.composition != c for cw in code.subcodes):
        raise ValueError("decomposition requires a common composition")
    n = code.n
    direct = float(dists.min(axis=1).mean()) / n

    proj = grouped_projection(s, c)
    points = np.stack(
        [np.asarray(cw.levels) * np.sqrt(np.asarray(c.parts, float)) for cw in code.subcodes]
    )
    d2 = (
        np.einsum("ij,ij->i", proj, proj)[:, None]
        - 2.0 * proj @ points.T
        + np.einsum("ij,ij->i", points, points)[None, :]
    )
    reduced = float(d2.min(axis=1).mean())
    energy = float(np.einsum("ij,ij->i", s, s).mean())
    shrink = float(np.einsum("ij,ij->i", proj, proj).mean())
    return direct, (reduced + energy - shrink) / n


def design_common_composition(
    c: Composition, cfg: DesignConfig, table: OrderStatTable
) -> LloydResult:
    """J-sphere design for one shared composition via the reduced K-dim quantizer.

    Training vectors are sorted (magnitudes for variant II), projected to
    scaled group sums, quantized with a J-point Lloyd iteration, and the
    centroids mapped back to level values.
    """
    if table.n != c.n:
        raise ValueError(f"table is for n={table.n}, composition needs n={c.n}")
    x, init_rows = _draw_training(cfg, c.n, table.sigma)
    s = sort_by_variant(x, cfg.variant)
    proj = grouped_projection(s, c)

    n = c.n
    x2_mean = float(np.einsum("ij,ij->i", s, s).mean())
    p2 = np.einsum("ij,ij->i", proj, proj)
    p2_mean = float(p2.mean())

    centroids = proj[init_rows]
    history: list[float] = []
    events = 0
    converged = False
    for _ in range(LLOYD_MAX_ITERS):
        d2 = p2[:, None] - 2.0 * proj @ centroids.T + np.einsum(
            "ij,ij->i", centroids, centroids
        )[None, :]
        assign, mind = nearest_subcode(d2)
        np.maximum(mind, 0.0, out=mind)
        history.append((float(mind.mean()) + x2_mean - p2_mean) / n)
        means, empty = _cell_means([proj] * cfg.J, assign, mind)
        centroids = np.stack(means)
        events += empty
        if _settled(history):
            converged = True
            break

    scale = np.sqrt(np.asarray(c.parts, dtype=float))
    merged_any = False
    subcodes = []
    for j in range(cfg.J):
        cw, merged = _codeword_from_levels(c.parts, tuple(centroids[j] / scale), cfg.variant)
        merged_any |= merged
        subcodes.append(cw)
    final = subcode_distances(s, ConcentricCode(tuple(subcodes)))
    assign, mind = nearest_subcode(final)
    probs = tuple(np.bincount(assign, minlength=cfg.J) / len(proj))
    code = ConcentricCode(tuple(subcodes), probs=probs)

    distortion = float(mind.mean()) / n
    if not merged_any:
        direct, decomposed = _decomposition(code, s, final)
        if abs(direct - decomposed) > 1e-9 * max(abs(direct), 1e-300):
            raise AssertionError(
                f"distortion decomposition mismatch: {direct} vs {decomposed}"
            )
    return LloydResult(
        code=code,
        distortion=distortion,
        distortion_history=history,
        iterations=len(history),
        converged=converged,
        probs=probs,
        empty_cell_events=events,
        merged_levels=merged_any,
        reduced=ReducedVQ(centroids),
        seed=cfg.rng_seed,
        sample_count=cfg.sample_count,
    )


def lloyd_general(
    compositions: Sequence[Composition], cfg: DesignConfig, table: OrderStatTable
) -> LloydResult:
    """Full-dimension alternation for possibly different per-sphere compositions.

    Each round classifies every sorted training vector to its nearest subcode
    and resets each level to the conditional mean of its group sum.  An empty
    region is reseeded at the worst-quantized training vector.
    """
    compositions = [
        c if isinstance(c, Composition) else Composition(tuple(c)) for c in compositions
    ]
    if len(compositions) != cfg.J:
        raise ValueError(f"{len(compositions)} compositions for J={cfg.J}")
    n = compositions[0].n
    if any(c.n != n for c in compositions):
        raise ValueError("compositions must share the dimension")
    if table.n != n:
        raise ValueError(f"table is for n={table.n}, compositions need n={n}")

    x, init_rows = _draw_training(cfg, n, table.sigma)
    s = sort_by_variant(x, cfg.variant)
    x2 = np.einsum("ij,ij->i", s, s)

    by_composition = {c: np.add.reduceat(s, group_starts(c), axis=1) for c in compositions}
    group_sums = [by_composition[c] for c in compositions]
    parts_arr = [np.asarray(c.parts, dtype=float) for c in compositions]
    mus = [group_sums[j][init_rows[j]] / parts_arr[j] for j in range(cfg.J)]

    history: list[float] = []
    events = 0
    converged = False
    dists = np.empty((len(s), cfg.J), dtype=float)
    for _ in range(LLOYD_MAX_ITERS):
        for j, mu in enumerate(mus):
            dists[:, j] = x2 - 2.0 * (group_sums[j] @ mu) + float(parts_arr[j] @ (mu * mu))
        assign, mind = nearest_subcode(dists)
        np.maximum(mind, 0.0, out=mind)
        history.append(float(mind.mean()) / n)
        means, empty = _cell_means(group_sums, assign, mind)
        mus = [mean / parts for mean, parts in zip(means, parts_arr)]
        events += empty
        if _settled(history):
            converged = True
            break

    merged_any = False
    subcodes = []
    for j in range(cfg.J):
        cw, merged = _codeword_from_levels(
            compositions[j].parts, tuple(mus[j]), cfg.variant
        )
        merged_any |= merged
        subcodes.append(cw)
    code = ConcentricCode(tuple(subcodes))
    assign, mind = nearest_subcode(subcode_distances(s, code))
    probs = tuple(np.bincount(assign, minlength=cfg.J) / len(s))
    code = ConcentricCode(tuple(subcodes), probs=probs)
    distortion = float(mind.mean()) / n
    return LloydResult(
        code=code,
        distortion=distortion,
        distortion_history=history,
        iterations=len(history),
        converged=converged,
        probs=probs,
        empty_cell_events=events,
        merged_levels=merged_any,
        seed=cfg.rng_seed,
        sample_count=cfg.sample_count,
    )


# ---------------------------------------------------------------------------
# adjacent-group swap analysis (sign-carrying codebooks)


def swap_composition(c: Composition, m: int) -> Composition:
    """Exchange parts m and m+1 (1-based position, 1 <= m < K)."""
    if not 1 <= m < c.num_levels:
        raise ValueError(f"m={m} out of range for {c.num_levels} groups")
    parts = list(c.parts)
    parts[m - 1], parts[m] = parts[m], parts[m - 1]
    return Composition(tuple(parts))


def swap_pair_exact(q: int, r: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Exact replacement values for the two levels whose groups swap sizes.

    Keeps the level gap and the multiplicity-weighted energy unchanged:
    ``new_a - new_b == a - b`` and ``r*new_a^2 + q*new_b^2 == q*a^2 + r*b^2``.
    Both identities are asserted in rational arithmetic.
    """
    a, b = Fraction(a), Fraction(b)
    new_a = (2 * q * a + (r - q) * b) / (q + r)
    new_b = ((q - r) * a + 2 * r * b) / (q + r)
    if new_a - new_b != a - b:
        raise AssertionError("level-gap identity violated")
    if r * new_a * new_a + q * new_b * new_b != q * a * a + r * b * b:
        raise AssertionError("energy identity violated")
    return new_a, new_b


def swap_levels(
    levels_per_sphere: Sequence[Sequence[float]], c: Composition, m: int
) -> list[tuple[float, ...]]:
    """Companion level construction for :func:`swap_composition`.

    Positions m and m+1 get new values from :func:`swap_pair_exact` (identity
    checks included), rounded back to floats at the end.
    """
    if not 1 <= m < c.num_levels:
        raise ValueError(f"m={m} out of range for {c.num_levels} groups")
    q = c.parts[m - 1]
    r = c.parts[m]
    out = []
    for levels in levels_per_sphere:
        mu = [Fraction(float(v)) for v in levels]
        mu[m - 1], mu[m] = swap_pair_exact(q, r, mu[m - 1], mu[m])
        out.append(tuple(float(v) for v in mu))
    return out


def estimate_zeta_split(
    c: Composition, m: int, samples: int, seed: int, sigma: float = 1.0
) -> tuple[float, float]:
    """Monte Carlo estimates of the positive and negative parts of the
    convexity statistic for groups m, m+1 (requires n_m > n_{m+1})."""
    q = c.parts[m - 1]
    r = c.parts[m]
    if q <= r:
        raise ValueError(f"groups m={m} need n_m > n_m+1, got {q} <= {r}")
    left = sum(c.parts[: m - 1])
    rng = substream(seed, "zeta")
    eta = sort_by_variant(rng.standard_normal((samples, c.n)) * sigma, VARIANT_II)
    first = eta[:, left : left + r].sum(axis=1) / r
    middle = eta[:, left + r : left + q].sum(axis=1) * (2.0 / (q - r))
    last = eta[:, left + q : left + q + r].sum(axis=1) / r
    zeta = first - middle + last
    plus = float(np.maximum(zeta, 0.0).mean())
    minus = float(np.maximum(-zeta, 0.0).mean())
    return plus, minus


@dataclass(frozen=True)
class SwapReport:
    d_before: float
    d_after: float
    stderr_diff: float
    constraint_satisfied: bool
    zeta_plus: float
    zeta_minus: float
    gap_ratio: float
    seed: int
    samples: int

    @property
    def improvement(self) -> float:
        return self.d_before - self.d_after


def swap_improvement_test(
    levels_per_sphere: Sequence[Sequence[float]],
    c: Composition,
    m: int,
    cfg: DesignConfig,
    table: OrderStatTable,
) -> SwapReport:
    """Empirically compare a sign-carrying codebook against its group-swapped twin.

    Requires convex magnitude order-statistic means (checked from the table)
    and reports whether the supplied codebook satisfies the gap-ratio
    constraint under which the swap provably cannot hurt.
    """
    if cfg.variant != VARIANT_II:
        raise ValueError("swap analysis applies to sign-carrying (variant 2) codebooks")
    if table.n != c.n:
        raise ValueError(f"table is for n={table.n}, composition needs n={c.n}")
    curv = np.diff(table.mean_eta, 2)
    if np.any(curv < -1e-9):
        raise DesignInfeasibleError("magnitude order-stat means are not convex")

    q, r = c.parts[m - 1], c.parts[m]
    swapped = swap_composition(c, m)
    if q == r:
        new_levels = [tuple(float(v) for v in lv) for lv in levels_per_sphere]
        zeta_plus = zeta_minus = 0.0
        constraint = True
    else:
        if q < r:
            raise ValueError(f"swap test expects n_m > n_m+1, got {q} < {r}")
        zeta_plus, zeta_minus = estimate_zeta_split(
            c, m, cfg.sample_count, cfg.rng_seed, table.sigma
        )
        gaps = [float(lv[m - 1]) - float(lv[m]) for lv in levels_per_sphere]
        ratio = min(gaps) / max(gaps)
        constraint = ratio >= zeta_minus / zeta_plus
        new_levels = swap_levels(levels_per_sphere, c, m)

    before = ConcentricCode(
        tuple(InitialCodeword(c, lv, VARIANT_II) for lv in levels_per_sphere)
    )
    after = ConcentricCode(
        tuple(InitialCodeword(swapped, lv, VARIANT_II) for lv in new_levels)
    )

    rng = substream(cfg.rng_seed, "swap-eval")
    s = sort_by_variant(rng.standard_normal((cfg.sample_count, c.n)) * table.sigma, VARIANT_II)
    d_before = subcode_distances(s, before).min(axis=1) / c.n
    d_after = subcode_distances(s, after).min(axis=1) / c.n
    diff = d_after - d_before
    stderr = float(diff.std(ddof=1) / math.sqrt(len(diff)))
    gaps = [float(lv[m - 1]) - float(lv[m]) for lv in levels_per_sphere]
    return SwapReport(
        d_before=float(d_before.mean()),
        d_after=float(d_after.mean()),
        stderr_diff=stderr,
        constraint_satisfied=constraint,
        zeta_plus=zeta_plus,
        zeta_minus=zeta_minus,
        gap_ratio=min(gaps) / max(gaps),
        seed=cfg.rng_seed,
        samples=cfg.sample_count,
    )
