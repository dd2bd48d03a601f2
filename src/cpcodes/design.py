"""Level and composition optimization for single- and multi-sphere codebooks.

A Lloyd round reads only each sorted training row's energy and group sums,
so every designer reduces the rows to those as they are drawn
(:func:`_reduced_training`) and no ``samples x n`` array is held.  Both
designers run one Lloyd loop (:func:`_lloyd`) in two coordinate systems.
With one shared composition the search collapses to a J-point vector
quantizer on the scaled group sums of the sorted source (dimension K instead
of n); with arbitrary per-sphere compositions each sphere keeps its own
group sums.  The two distance rules stay separate: one matrix product and a
matrix-vector product per sphere round differently, and the golden designs
pin both.  The finishing pass (:func:`_lloyd_result`) draws the training
rows again from the same substream and scores them with the encoder's rule.
Both record their distortion trajectory and are reproducible from (seed,
sample_count).  A round scores ``CHUNK_ROWS`` rows at a time into scratch
allocated once per design and writes one nearest sphere and one distance per
row, and the cell sums are carried block by block, so a design holds its
per-row state and scratch of fixed size: :func:`training_memory_bytes`,
which each designer checks against the memory available before it draws.
The shape-gain designers measure their code on fresh samples, so they run
the per-sphere rounds alone (:func:`lloyd_general_code`) and skip the
finishing pass.
"""

from __future__ import annotations

import math
import resource
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
    sorted_distances,
)
from .order_stats import OrderStatTable, grouped_projection
from .streams import CHUNK_ROWS, MIN_TRAINING_SAMPLES, normal_blocks, substream


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
        if self.sample_count < MIN_TRAINING_SAMPLES:
            raise ValueError(f"sample_count must be >= {MIN_TRAINING_SAMPLES}")


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


@dataclass
class LloydResult:
    code: ConcentricCode
    distortion: float
    distortion_history: list[float]
    iterations: int
    converged: bool
    empty_cell_events: int = 0
    merged_levels: bool = False
    reduced: ReducedVQ | None = None


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


def training_memory_bytes(compositions: Sequence[Composition], cfg: DesignConfig) -> int:
    """Estimated bytes a design holds beyond the interpreter: ``samples x (1
    + L + 2)`` float64 of per-row state, L the group sums per row (K summed
    over the distinct ``compositions``), plus scratch of fixed size.

    The state is one energy (the projected energy for ``common``), the group
    sums, and a round's nearest sphere and distance.  A one-level
    composition's cell is gathered whole for its mean, up to 9 more bytes
    per row.  The scratch is what one ``CHUNK_ROWS`` block needs: the draw,
    its transposed copy, the ``(J, CHUNK_ROWS)`` distances and their
    summands, and a cell's gathered rows.
    """
    distinct = set(compositions)
    levels = sum(c.num_levels for c in distinct)
    per_row = 8 * (1 + levels + 2) + (9 if any(c.num_levels == 1 for c in distinct) else 0)
    per_chunk_row = 8 * (2 * compositions[0].n + 2 * cfg.J + levels + 1)
    return cfg.sample_count * per_row + CHUNK_ROWS * per_chunk_row


def _available_bytes() -> int | None:
    """What this process may still allocate: ``MemAvailable`` from
    ``/proc/meminfo``, capped by an address-space limit (``ulimit -v``),
    which the process cannot exceed whatever the machine has free; None
    when neither is known."""
    limits = []
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    try:
        with open("/proc/meminfo") as fp:
            for line in fp:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError, IndexError):
        pass
    return min(limits) if limits else None


def _guard_memory(compositions: Sequence[Composition], cfg: DesignConfig) -> None:
    """Refuse, before any draw, a design that :func:`training_memory_bytes`
    says would not fit in :func:`_available_bytes`."""
    need = training_memory_bytes(compositions, cfg)
    budget = _available_bytes()
    if budget is not None and need > budget:
        raise MemoryError(
            f"the design needs an estimated {need / 2**20:.1f} MB, "
            f"more than the {budget / 2**20:.1f} MB available"
        )


def _training_blocks(cfg: DesignConfig, n: int, sigma: float, take) -> np.ndarray:
    """Draw the training rows ``CHUNK_ROWS`` at a time, hand each block,
    sorted (magnitudes for variant II), to ``take(lo, block)``, and return
    the J start rows drawn after the last block.

    The blocks are bit for bit the rows of ``sort_by_variant(rng.standard_normal((m,
    n)) * sigma, variant)``: consecutive draws continue one stream and rows
    sort independently.  Each block is sorted in the draw's own buffer.
    """
    rng = substream(cfg.rng_seed, "design")
    for lo, x in normal_blocks(rng, cfg.sample_count, n, sigma):
        take(lo, sort_by_variant(x, cfg.variant, out=x))  # the next block redraws x
    return rng.choice(cfg.sample_count, size=cfg.J, replace=False)


def _reduced_training(compositions, cfg: DesignConfig, sigma: float):
    """The energy of each sorted training row and its group sums under each
    distinct composition, and the J start rows, reduced block by block as
    the rows are drawn: nothing of size ``samples x n`` is held.  Both
    reductions work row by row, so a block gives its rows' bits.  A design
    that would not fit is refused first (:func:`_guard_memory`)."""
    m = cfg.sample_count
    _guard_memory(compositions, cfg)
    x2 = np.empty(m)
    sums = {c: np.empty((m, c.num_levels)) for c in compositions}

    def reduce(lo, block):
        hi = lo + len(block)
        np.einsum("ij,ij->i", block, block, out=x2[lo:hi])
        for c, part in sums.items():
            np.add.reduceat(block, group_starts(c), axis=1, out=part[lo:hi])

    return x2, sums, _training_blocks(cfg, compositions[0].n, sigma, reduce)


def _projected_training(c: Composition, cfg: DesignConfig, sigma: float):
    """The common designer's reduction, block by block as the rows are drawn:
    the mean row energy, the scaled group sums (``grouped_projection``)
    stored coordinate-major, ``(K, samples)``, their energies, and the J
    start rows.  Each row rounds as in the whole-set computation."""
    m = cfg.sample_count
    _guard_memory([c], cfg)
    scale = np.sqrt(np.asarray(c.parts, dtype=float))
    x2 = np.empty(m)
    p2 = np.empty(m)
    projT = np.empty((c.num_levels, m))
    proj = np.empty((min(CHUNK_ROWS, m), c.num_levels))

    def reduce(lo, block):
        hi = lo + len(block)
        np.einsum("ij,ij->i", block, block, out=x2[lo:hi])
        p = proj[: len(block)]
        np.add.reduceat(block, group_starts(c), axis=1, out=p)
        p /= scale
        np.einsum("ij,ij->i", p, p, out=p2[lo:hi])
        projT[:, lo:hi] = p.T

    init_rows = _training_blocks(cfg, c.n, sigma, reduce)
    return float(x2.mean()), p2, projT, init_rows


def _settled(history: list[float]) -> bool:
    """Whether the last Lloyd round lowered distortion by less than LLOYD_REL_TOL."""
    return len(history) > 1 and history[-2] - history[-1] < LLOYD_REL_TOL * max(
        history[-1], 1e-300
    )


def _reseed(means, row_of, mind) -> int:
    """Put each empty cell (a None in ``means``) at the worst-quantized row by
    ``mind``, the next worst for each further empty cell, so reseeds stay
    distinct; ``row_of(j, i)`` is row i of cell j's points.  That order is
    sorted only when a cell is empty.  Returns the number of empty cells."""
    empty = [j for j, mean in enumerate(means) if mean is None]
    if empty:
        worst = np.argsort(-mind)
        for j, i in zip(empty, worst):
            means[j] = row_of(j, int(i))
    return len(empty)


def _shared_cell_means(pointsT: np.ndarray, assign: np.ndarray, mind: np.ndarray, J: int):
    """One Lloyd centroid update when every cell reads the same points,
    stored coordinate-major (``(K, m)``): the mean of the columns that
    ``assign`` puts in cell j, for each j, and the number of empty cells
    (reseeded by :func:`_reseed`).

    Each mean rounds as ``points[assign == j].mean(axis=0)`` does.  Over two
    or more columns that mean adds the rows one after another, and so does a
    weighted bincount, one per coordinate over all cells; numpy sums a
    one-column cell pairwise, so that cell keeps ``mean``.
    """
    counts = np.bincount(assign, minlength=J)
    K = len(pointsT)
    if K > 1:
        sums = np.stack([np.bincount(assign, weights=row, minlength=J) for row in pointsT], axis=1)
    means = []
    for j, count in enumerate(counts):
        if not count:
            means.append(None)
        elif K > 1:
            means.append(sums[j] / count)
        else:
            means.append(pointsT[0][assign == j].mean(keepdims=True))
    return means, _reseed(means, lambda j, i: pointsT[:, i].copy(), mind)


def _gathered_mean(points: np.ndarray, assign: np.ndarray, j: int, buf: np.ndarray):
    """The mean of the rows of ``points`` that ``assign`` puts in cell j, or
    None for an empty cell, rounded as ``points[assign == j].mean(axis=0)``.

    Over two or more columns that mean adds the rows one after another.  So
    the rows are gathered ``CHUNK_ROWS`` at a time into ``buf`` (at least
    ``(CHUNK_ROWS + 1) * K`` floats) behind the running sum, and summed with
    it: the same additions in the same order, with no copy of the whole
    cell.  numpy sums a one-column cell pairwise, so that cell keeps ``mean``.
    """
    K = points.shape[1]
    if K == 1:
        cell = points[:, 0][assign == j]
        return cell.mean(keepdims=True) if len(cell) else None
    total = np.zeros(K)
    count = 0
    for lo in range(0, len(assign), CHUNK_ROWS):
        rows = np.flatnonzero(assign[lo : lo + CHUNK_ROWS] == j)
        if len(rows):
            rows += lo
            block = buf[: (len(rows) + 1) * K].reshape(len(rows) + 1, K)
            block[0] = total
            # mode="clip" gathers into ``block`` directly; "raise" would buffer it
            np.take(points, rows, axis=0, out=block[1:], mode="clip")
            np.einsum("ij->j", block, out=total)
            count += len(rows)
    return total / count if count else None


def _cell_means(cells: Sequence[np.ndarray], assign: np.ndarray, mind: np.ndarray, buf: np.ndarray):
    """One Lloyd centroid update when cell j reads its own points
    ``cells[j]`` (``(m, K_j)``): each cell's :func:`_gathered_mean`, and the
    number of empty cells (reseeded by :func:`_reseed`)."""
    means = [_gathered_mean(points, assign, j, buf) for j, points in enumerate(cells)]
    return means, _reseed(means, lambda j, i: cells[j][i], mind)


def _nearest_blocks(score, assign: np.ndarray, mind: np.ndarray) -> None:
    """:func:`nearest_subcode` of each ``CHUNK_ROWS`` block of rows, written
    into the whole-set ``assign`` and ``mind``; ``score(lo, hi)`` returns the
    ``(J, hi - lo)`` distances of rows ``lo:hi``.

    Blocks start at multiples of ``CHUNK_ROWS``, so a BLAS kernel sees the
    rows of a block in the tiles it would give them in one whole-set call.
    """
    for lo in range(0, len(assign), CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, len(assign))
        nearest_subcode(score(lo, hi), out=(assign[lo:hi], mind[lo:hi]))


def _lloyd(means, distances, update, m, n, energy=(0.0, 0.0)):
    """Lloyd rounds over ``m`` rows from the start ``means`` until
    :func:`_settled` or LLOYD_MAX_ITERS.

    ``distances(means)`` returns the designer's distance rule as a
    ``score(lo, hi)`` for :func:`_nearest_blocks`, and ``update(assign,
    mind)`` returns the new means and the number of empty cells.  Every
    round writes one ``assign`` and one ``mind`` of m entries.  ``energy =
    (x2_mean, p2_mean)`` adds back to each round's distortion what reduced
    coordinates leave out.  Returns the final means, the distortion history,
    the empty-cell count and whether the loop converged.
    """
    x2_mean, p2_mean = energy
    assign = np.empty(m, dtype=np.intp)
    mind = np.empty(m)
    history: list[float] = []
    events = 0
    for _ in range(LLOYD_MAX_ITERS):
        _nearest_blocks(distances(means), assign, mind)
        np.maximum(mind, 0.0, out=mind)
        history.append((float(mind.mean()) + x2_mean - p2_mean) / n)
        means, empty = update(assign, mind)
        events += empty
        if _settled(history):
            return means, history, events, True
    return means, history, events, False


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
    floating-point roundoff.  An independent reference for the check that
    :func:`design_common_composition` makes with its own quantities.
    """
    c = code.subcodes[0].composition
    if any(cw.composition != c for cw in code.subcodes):
        raise ValueError("decomposition requires a common composition")
    n = code.n
    s = sort_by_variant(np.asarray(x, dtype=float), code.variant)
    sT = np.ascontiguousarray(s.T)
    direct = float(nearest_subcode(sorted_distances(sT, code))[1].mean()) / n

    proj = grouped_projection(s, c)
    points = np.stack(
        [np.asarray(cw.levels) * np.sqrt(np.asarray(c.parts, float)) for cw in code.subcodes]
    )
    p2 = np.einsum("ij,ij->i", proj, proj)
    d2 = p2[:, None] - 2.0 * proj @ points.T + np.einsum("ij,ij->i", points, points)[None, :]
    reduced = float(d2.min(axis=1).mean())
    energy = float(np.einsum("ij,ij->i", s, s).mean())
    shrink = float(p2.mean())
    return direct, (reduced + energy - shrink) / n


def _lloyd_result(parts, levels, cfg, sigma, rounds) -> LloydResult:
    """The codebook with ``parts[j]`` and ``levels[j]`` on sphere j, and its
    training distortion and sphere probabilities under the encoder's rule.

    ``rounds`` is :func:`_lloyd`'s ``(history, events, converged)``.  The
    training rows are drawn again, block by block, from the same substream:
    each block is bit for bit the one the rounds were reduced from, and each
    column is scored on its own, into buffers reused by every block, so the
    whole set is never held.
    """
    history, events, converged = rounds
    built = [_codeword_from_levels(p, lv, cfg.variant) for p, lv in zip(parts, levels)]
    code = ConcentricCode(tuple(cw for cw, _ in built))
    counts = np.zeros(cfg.J, dtype=np.intp)
    mind = np.empty(cfg.sample_count)
    rows = min(CHUNK_ROWS, cfg.sample_count)
    sT = np.empty((code.n, rows))
    dists = np.empty((cfg.J, rows))
    assign = np.empty(rows, dtype=np.intp)

    def score(lo, block):
        b = len(block)
        np.copyto(sT[:, :b], block.T)
        d = sorted_distances(sT[:, :b], code, out=dists[:, :b])
        nearest_subcode(d, out=(assign[:b], mind[lo : lo + b]))
        counts[:] += np.bincount(assign[:b], minlength=cfg.J)

    _training_blocks(cfg, code.n, sigma, score)
    return LloydResult(
        code=ConcentricCode(code.subcodes, probs=tuple(counts / cfg.sample_count)),
        distortion=float(mind.mean()) / code.n,
        distortion_history=history,
        iterations=len(history),
        converged=converged,
        empty_cell_events=events,
        merged_levels=any(merged for _, merged in built),
    )


def _common_rounds(c: Composition, cfg: DesignConfig, sigma: float):
    """Lloyd rounds of the reduced K-dim quantizer over the scaled group sums
    of the training rows, projected as they are drawn: the centroids,
    :func:`_lloyd`'s ``(history, events, converged)``, and the encoder's
    distortion as the decomposition gives it at the final levels (None when
    levels merged): reduced distortion + energy - projected energy.  The
    projections are freed on return, before the finishing pass draws."""
    m = cfg.sample_count
    x2_mean, p2, projT, init_rows = _projected_training(c, cfg, sigma)
    scale = np.sqrt(np.asarray(c.parts, dtype=float))
    energy = (x2_mean, float(p2.mean()))
    dists = np.empty((cfg.J, min(CHUNK_ROWS, m)))

    def distances(means):
        # p2 - 2*(C @ projT) + |C|^2, rounded as written, block by block in one buffer
        centroids = np.stack(means)
        c2 = np.einsum("ij,ij->i", centroids, centroids)[:, None]

        def score(lo, hi):
            d = dists[:, : hi - lo]
            np.matmul(centroids, projT[:, lo:hi], out=d)
            np.multiply(d, -2.0, out=d)
            np.add(d, p2[lo:hi], out=d)
            return np.add(d, c2, out=d)

        return score

    def update(assign, mind):
        return _shared_cell_means(projT, assign, mind, cfg.J)

    means, *rounds = _lloyd(list(projT[:, init_rows].T), distances, update, m, c.n, energy)
    centroids = np.stack(means)
    built = [_codeword_from_levels(c.parts, lv, cfg.variant) for lv in centroids / scale]
    if any(merged for _, merged in built):
        return centroids, rounds, None
    # the reduced distortion at the final points (variant II levels are clamped at 0)
    points = np.array([cw.levels for cw, _ in built]) * scale
    mind = np.empty(m)
    _nearest_blocks(distances(points), np.empty(m, dtype=np.intp), mind)
    return centroids, rounds, (float(mind.mean()) + energy[0] - energy[1]) / c.n


def design_common_composition(
    c: Composition, cfg: DesignConfig, table: OrderStatTable
) -> LloydResult:
    """J-sphere design for one shared composition via the reduced K-dim quantizer.

    Training vectors are sorted (magnitudes for variant II), projected to
    scaled group sums, quantized with a J-point Lloyd iteration, and the
    centroids mapped back to level values.  The encoder's distortion is
    checked against the reduced-space decomposition.
    """
    if table.n != c.n:
        raise ValueError(f"table is for n={table.n}, composition needs n={c.n}")
    centroids, rounds, decomposed = _common_rounds(c, cfg, table.sigma)
    scale = np.sqrt(np.asarray(c.parts, dtype=float))
    result = _lloyd_result([c.parts] * cfg.J, centroids / scale, cfg, table.sigma, rounds)
    if decomposed is not None:
        if abs(result.distortion - decomposed) > 1e-9 * max(abs(result.distortion), 1e-300):
            raise AssertionError(
                f"distortion decomposition mismatch: {result.distortion} vs {decomposed}"
            )
    result.reduced = ReducedVQ(centroids)
    return result


def _check_compositions(compositions: Sequence[Composition], cfg: DesignConfig) -> int:
    """The shared dimension of one composition per sphere."""
    if len(compositions) != cfg.J:
        raise ValueError(f"{len(compositions)} compositions for J={cfg.J}")
    n = compositions[0].n
    if any(c.n != n for c in compositions):
        raise ValueError("compositions must share the dimension")
    return n


def _general_rounds(compositions, cfg, sigma):
    """Lloyd rounds over per-sphere group sums of the training rows, reduced
    as they are drawn: sphere j's levels and :func:`_lloyd`'s ``(history,
    events, converged)``."""
    x2, by_composition, init_rows = _reduced_training(compositions, cfg, sigma)
    group_sums = [by_composition[c] for c in compositions]
    parts_arr = [np.asarray(c.parts, dtype=float) for c in compositions]
    rows = min(CHUNK_ROWS, len(x2))
    dists = np.empty((len(compositions), rows))
    gathered = np.empty((rows + 1) * max(c.num_levels for c in compositions))

    def distances(means):
        # x2 - 2*(G_j @ mu) + parts @ mu^2 per sphere, rounded as written
        mus = [mean / parts for mean, parts in zip(means, parts_arr)]
        shifts = [float(parts @ (mu * mu)) for mu, parts in zip(mus, parts_arr)]

        def score(lo, hi):
            d = dists[:, : hi - lo]
            for j, (sums, mu, shift) in enumerate(zip(group_sums, mus, shifts)):
                np.matmul(sums[lo:hi], mu, out=d[j])
                d[j] *= -2.0
                d[j] += x2[lo:hi]
                d[j] += shift
            return d

        return score

    def update(assign, mind):
        return _cell_means(group_sums, assign, mind, gathered)

    starts = [sums[row] for sums, row in zip(group_sums, init_rows)]
    means, *rounds = _lloyd(starts, distances, update, len(x2), compositions[0].n)
    return [mean / parts for mean, parts in zip(means, parts_arr)], rounds


def lloyd_general(
    compositions: Sequence[Composition], cfg: DesignConfig, table: OrderStatTable
) -> LloydResult:
    """Full-dimension alternation for possibly different per-sphere compositions.

    Each round classifies every sorted training vector to its nearest subcode
    and resets each level to the conditional mean of its group sum.  An empty
    region is reseeded at the worst-quantized training vector.
    """
    n = _check_compositions(compositions, cfg)
    if table.n != n:
        raise ValueError(f"table is for n={table.n}, compositions need n={n}")
    levels, rounds = _general_rounds(compositions, cfg, table.sigma)
    return _lloyd_result([c.parts for c in compositions], levels, cfg, table.sigma, rounds)


def lloyd_general_code(
    compositions: Sequence[Composition], cfg: DesignConfig, sigma: float
) -> tuple[ConcentricCode, int]:
    """The codebook of :func:`lloyd_general` and its number of Lloyd rounds,
    without its finishing pass: for a caller that measures the code on fresh
    samples, which :func:`lloyd_general`'s training probabilities and
    distortion would not serve.
    """
    _check_compositions(compositions, cfg)
    levels, (history, _, _) = _general_rounds(compositions, cfg, sigma)
    subcodes = tuple(
        _codeword_from_levels(c.parts, lv, cfg.variant)[0] for c, lv in zip(compositions, levels)
    )
    return ConcentricCode(subcodes), len(history)


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
    zeta = np.empty(samples)
    for lo, x in normal_blocks(substream(seed, "zeta"), samples, c.n, sigma):
        eta = sort_by_variant(x, VARIANT_II)
        first = eta[:, left : left + r].sum(axis=1) / r
        middle = eta[:, left + r : left + q].sum(axis=1) * (2.0 / (q - r))
        last = eta[:, left + q : left + q + r].sum(axis=1) / r
        zeta[lo : lo + len(x)] = first - middle + last
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

    d_before = np.empty(cfg.sample_count)
    d_after = np.empty(cfg.sample_count)
    rows = min(CHUNK_ROWS, cfg.sample_count)
    sT = np.empty((c.n, rows))
    dists = np.empty((cfg.J, rows))
    assign = np.empty(rows, dtype=np.intp)
    rng = substream(cfg.rng_seed, "swap-eval")
    for lo, x in normal_blocks(rng, cfg.sample_count, c.n, table.sigma):
        b = len(x)
        np.copyto(sT[:, :b], sort_by_variant(x, VARIANT_II, out=x).T)
        for code, d in ((before, d_before), (after, d_after)):
            mind = d[lo : lo + b]
            nearest_subcode(sorted_distances(sT[:, :b], code, out=dists[:, :b]), out=(assign[:b], mind))
            mind /= c.n
    diff = d_after - d_before
    stderr = float(diff.std(ddof=1) / math.sqrt(len(diff)))
    return SwapReport(
        d_before=float(d_before.mean()),
        d_after=float(d_after.mean()),
        stderr_diff=stderr,
        constraint_satisfied=constraint,
        zeta_plus=zeta_plus,
        zeta_minus=zeta_minus,
    )
