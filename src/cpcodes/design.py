"""Level and composition optimization for single- and multi-sphere codebooks.

Every designer runs one Lloyd pipeline (:func:`_general_rounds`): draw the
training rows and reduce each sorted row to its energy and group sums as it
is drawn (:func:`_reduced_training`), so no ``samples x n`` array is held;
run the rounds; build the codebook once from the final levels.  The rounds
run one Lloyd rule: sphere j's levels against its own composition's group
sums, stored coordinate-major.  With one shared composition every sphere
reads the same sums, and the search is the paper's J-point vector quantizer
in dimension K instead of n, bit for bit the general design on J equal
compositions.  The distances are elementwise products added over the levels
in a fixed order, and the cell sums are weighted bincounts, so a design's
bits depend on no BLAS kernel, thread count or block size.  A round scores
``CHUNK_ROWS`` rows at a time into scratch allocated once per design, so a
design holds its per-row state and scratch of fixed size:
:func:`training_memory_bytes`, checked against the memory available before
any draw.  The finishing pass (:func:`_checked_design`) draws the rows again
from the same substream, scores the codebook with the encoder's rule
(:func:`codec.score_draws`), and checks that distortion against the rounds'
rule.  The shape-gain designers measure their code on fresh samples, so they
run the rounds alone (:func:`lloyd_general_code`) and skip the finishing pass.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .combinatorics import Composition, group_starts
from .codec import (
    VARIANT_I,
    VARIANT_II,
    ConcentricCode,
    InitialCodeword,
    nearest_subcode,
    score_draws,
    sort_by_variant,
    sorted_distances,
)
from .streams import CHUNK_ROWS, MIN_TRAINING_SAMPLES, normal_blocks, substream

if TYPE_CHECKING:
    from .order_stats import OrderStatTable


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
        if self.J > self.sample_count:
            raise ValueError(f"J={self.J} is more than sample_count={self.sample_count} training rows")


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
    levels = tuple(float(means[s : s + p].mean()) for s, p in zip(group_starts(c), c.parts))
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
    for mu, s, p in zip(cw.levels, group_starts(cw.composition), cw.composition.parts):
        total += float(second[s : s + p].sum() - 2.0 * mu * first[s : s + p].sum() + p * mu * mu)
    return total / cw.n


def training_memory_bytes(compositions: Sequence[Composition], cfg: DesignConfig) -> int:
    """Estimated bytes a design holds beyond the interpreter: ``samples x (1
    + L + 2)`` float64 of per-row state, L the group sums per row (K summed
    over the distinct ``compositions``), plus scratch of fixed size.

    The state is one energy, the group sums, and a round's nearest sphere
    and distance.  The scratch is what one ``CHUNK_ROWS`` block needs: the
    draw, its transposed copy, the ``(J, CHUNK_ROWS)`` distances and their
    summands, and a block's group sums.
    """
    levels = sum(c.num_levels for c in set(compositions))
    per_chunk_row = 8 * (2 * compositions[0].n + 2 * cfg.J + levels + 1)
    return cfg.sample_count * 8 * (1 + levels + 2) + CHUNK_ROWS * per_chunk_row


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


def _training_stream(cfg: DesignConfig) -> np.random.Generator:
    """The training rows' substream, drawn by the rounds and again by the finishing pass."""
    return substream(cfg.rng_seed, "design")


def _reduced_training(compositions, cfg: DesignConfig, sigma: float):
    """The energy of each sorted training row (magnitudes for variant II),
    its group sums under each distinct composition, stored coordinate-major
    (``(K, samples)``), and the J start rows drawn after the last row.  A
    design that would not fit is refused first (:func:`_guard_memory`).

    Each ``CHUNK_ROWS`` block is sorted in the draw's own buffer and reduced
    before the next is drawn.  Consecutive draws continue one stream, and
    rows sort and reduce independently, so a block gives the bits of its
    rows in ``sort_by_variant(rng.standard_normal((m, n)) * sigma, variant)``.
    """
    m = cfg.sample_count
    _guard_memory(compositions, cfg)
    x2 = np.empty(m)
    sums = {c: np.empty((c.num_levels, m)) for c in dict.fromkeys(compositions)}
    rng = _training_stream(cfg)
    for lo, x in normal_blocks(rng, m, compositions[0].n, sigma):
        block = sort_by_variant(x, cfg.variant, out=x)  # the next block redraws x
        hi = lo + len(block)
        np.einsum("ij,ij->i", block, block, out=x2[lo:hi])
        for c, part in sums.items():
            np.add.reduceat(block, group_starts(c), axis=1, out=part[:, lo:hi].T)
    return x2, sums, rng.choice(m, size=cfg.J, replace=False)


def _settled(history: list[float]) -> bool:
    """Whether the last Lloyd round lowered distortion by less than LLOYD_REL_TOL."""
    return len(history) > 1 and history[-2] - history[-1] < LLOYD_REL_TOL * max(
        history[-1], 1e-300
    )


def _cell_levels(sums: dict, compositions: Sequence[Composition], assign: np.ndarray, mind: np.ndarray):
    """One Lloyd update: sphere j's levels, the mean of its group sums
    ``sums[compositions[j]]`` (``(K, m)``) over the rows that ``assign``
    puts in cell j, divided by the parts, and the number of empty cells.

    One weighted bincount per coordinate of each distinct composition sums
    every cell at once, adding its rows in index order: the same additions,
    one column or many, whatever the block size.  Each empty cell is put at
    the worst-quantized row by ``mind``, the next worst for each further
    empty cell, so reseeds stay distinct, ties going to the smaller index:
    one ``argmax`` pass per empty cell, each row taken set to -inf in
    ``mind`` until all are placed, so nothing the size of the row count is
    allocated and ``mind`` is left as it was.
    """
    J = len(compositions)
    counts = np.bincount(assign, minlength=J)
    totals = {
        c: np.stack([np.bincount(assign, weights=row, minlength=J) for row in part], axis=1)
        for c, part in sums.items()
    }
    parts = [np.asarray(c.parts, dtype=float) for c in compositions]
    levels = [
        totals[c][j] / count / p if count else None
        for j, (c, count, p) in enumerate(zip(compositions, counts, parts))
    ]
    taken = []
    for j in np.flatnonzero(counts == 0).tolist():
        i = int(np.argmax(mind))
        levels[j] = sums[compositions[j]][:, i] / parts[j]
        taken.append((i, mind[i]))
        mind[i] = -np.inf
    for i, value in taken:
        mind[i] = value
    return levels, len(taken)


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


def distortion_decomposition(code: ConcentricCode, x: np.ndarray):
    """Direct distortion and its split into reduced-space, energy, and projection terms.

    Only meaningful when every subcode shares one composition.  Returns
    ``(direct, decomposed)`` per-sample distortions; the two agree up to
    floating-point roundoff.  An independent reference for the check that
    every finishing pass makes with the rounds' own quantities.
    """
    from .order_stats import grouped_projection

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


def _check_compositions(compositions: Sequence[Composition], cfg: DesignConfig) -> int:
    """The shared dimension of one composition per sphere."""
    if len(compositions) != cfg.J:
        raise ValueError(f"{len(compositions)} compositions for J={cfg.J}")
    n = compositions[0].n
    if any(c.n != n for c in compositions):
        raise ValueError("compositions must share the dimension")
    return n


def _general_rounds(compositions, cfg, sigma, check=False):
    """Lloyd rounds over per-sphere group sums of the training rows, reduced
    as they are drawn, from the J start rows until :func:`_settled` or
    LLOYD_MAX_ITERS, and the one codebook built from the final levels:
    adjacent groups pooled until each sphere's levels strictly decrease
    (:func:`_merge_nonincreasing`), then clamped at 0 for variant II.

    Returns a :class:`LloydResult` whose code has no probabilities, and
    sphere j's levels before merging and clamping.  With ``check`` the
    result's ``distortion`` is the codebook's per-sample distortion under
    the rounds' own rule, taken before the group sums are freed; without
    it, NaN.  Every round, and the check, writes one ``assign`` and one
    ``mind`` of one entry per row.

    Sphere j's distance is ``x2 - 2 sum_k G_k mu_k + sum_k n_k mu_k^2``,
    each sum over the levels added left to right with a separate multiply
    and add, in elementwise ufuncs and Python floats, ``CHUNK_ROWS`` rows at
    a time into scratch allocated once: no BLAS kernel picks the order, and
    a row's bits do not depend on its block.
    """
    x2, sums, init_rows = _reduced_training(compositions, cfg, sigma)
    m, n = len(x2), compositions[0].n
    group_sums = [sums[c] for c in compositions]
    rows = min(CHUNK_ROWS, m)
    dists = np.empty((cfg.J, rows))
    term = np.empty(rows)
    assign = np.empty(m, dtype=np.intp)
    mind = np.empty(m)

    def nearest(levels):
        # each row's nearest sphere and distance, into assign and mind;
        # -2 mu_k is exact, so the sum of G_k (-2 mu_k) is -2 sum_k G_k mu_k
        weights = [(-2.0 * mu).tolist() for mu in levels]
        shifts = []
        for c, mu in zip(compositions, levels):
            shift = 0.0
            for part, v in zip(c.parts, mu.tolist()):
                shift += part * (v * v)
            shifts.append(shift)
        for lo in range(0, m, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, m)
            d, t = dists[:, : hi - lo], term[: hi - lo]
            for dj, g, w, shift in zip(d, group_sums, weights, shifts):
                np.multiply(g[0, lo:hi], w[0], out=dj)
                for row, wk in zip(g[1:], w[1:]):
                    np.multiply(row[lo:hi], wk, out=t)
                    dj += t
                dj += x2[lo:hi]
                dj += shift
            nearest_subcode(d, out=(assign[lo:hi], mind[lo:hi]))

    parts = [np.asarray(c.parts, dtype=float) for c in compositions]
    levels = [g[:, row] / p for g, row, p in zip(group_sums, init_rows, parts)]
    history: list[float] = []
    events = 0
    for _ in range(LLOYD_MAX_ITERS):
        nearest(levels)
        np.maximum(mind, 0.0, out=mind)
        history.append(float(mind.mean()) / n)
        levels, empty = _cell_levels(sums, compositions, assign, mind)
        events += empty
        if _settled(history):
            break
    subcodes, merged = [], False
    for c, lv in zip(compositions, levels):
        pooled_parts, final, pooled = _merge_nonincreasing(c.parts, lv)
        if cfg.variant == VARIANT_II:
            final = tuple(max(v, 0.0) for v in final)
        subcodes.append(InitialCodeword(Composition(pooled_parts), final, cfg.variant))
        merged = merged or pooled
    distortion = math.nan
    if check:  # a merged level on each group it covers
        nearest([cw.initial_vector()[group_starts(c)] for c, cw in zip(compositions, subcodes)])
        distortion = float(mind.mean()) / n
    result = LloydResult(
        code=ConcentricCode(tuple(subcodes)),
        distortion=distortion,
        distortion_history=history,
        iterations=len(history),
        converged=_settled(history),
        empty_cell_events=events,
        merged_levels=merged,
    )
    return result, levels


def _checked_design(compositions, cfg, sigma):
    """:func:`_general_rounds`, then the finishing pass: the training rows
    are drawn again from the same substream and scored by the encoder's
    rule (:func:`codec.score_draws`) for the codebook's training distortion
    and sphere probabilities, and that distortion is checked against the
    rounds' rule at the final codewords.  Returns the result and the levels
    before merging and clamping."""
    result, levels = _general_rounds(compositions, cfg, sigma, check=True)
    m = cfg.sample_count
    mind = np.empty(m)
    (counts,) = score_draws(_training_stream(cfg), m, sigma, [result.code], [mind])
    distortion = float(mind.mean()) / result.code.n
    if abs(distortion - result.distortion) > 1e-9 * max(abs(distortion), 1e-300):
        raise AssertionError(
            f"distortion decomposition mismatch: {distortion} vs {result.distortion}"
        )
    result.code = ConcentricCode(result.code.subcodes, probs=tuple(counts / m))
    result.distortion = distortion
    return result, levels


def design_common_composition(
    c: Composition, cfg: DesignConfig, table: OrderStatTable
) -> LloydResult:
    """J-sphere design for one shared composition via the reduced K-dim quantizer.

    Every sphere reads the same group sums of the sorted training vectors
    (magnitudes for variant II), so the rounds are :func:`lloyd_general`'s
    on ``[c] * J``, bit for bit: a J-point Lloyd iteration in K dimensions.
    ``reduced`` holds the final points in the scaled coordinates
    ``sqrt(n_i) * mu_i``.
    """
    if table.n != c.n:
        raise ValueError(f"table is for n={table.n}, composition needs n={c.n}")
    result, levels = _checked_design([c] * cfg.J, cfg, table.sigma)
    result.reduced = ReducedVQ(np.stack(levels) * np.sqrt(np.asarray(c.parts, dtype=float)))
    return result


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
    return _checked_design(compositions, cfg, table.sigma)[0]


def lloyd_general_code(
    compositions: Sequence[Composition], cfg: DesignConfig, sigma: float
) -> tuple[ConcentricCode, int]:
    """The codebook of :func:`lloyd_general` and its number of Lloyd rounds,
    without its finishing pass: for a caller that measures the code on fresh
    samples, which :func:`lloyd_general`'s training probabilities and
    distortion would not serve.
    """
    _check_compositions(compositions, cfg)
    result, _ = _general_rounds(compositions, cfg, sigma)
    return result.code, result.iterations


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
    left = group_starts(c)[m - 1]
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

    d_before, d_after = np.empty(cfg.sample_count), np.empty(cfg.sample_count)
    score_draws(substream(cfg.rng_seed, "swap-eval"), cfg.sample_count, table.sigma,
                [before, after], [d_before, d_after])
    d_before /= c.n
    d_after /= c.n
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
