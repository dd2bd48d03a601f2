"""Empirical rate/distortion measurement, scalar-quantizer baselines, and
rate-distortion curve assembly.

The scalar-quantizer baselines evaluate the normal CDF with
:func:`cephes.ndtr`, bit for bit the Cephes routine behind
``scipy.special.ndtr``: the rational polynomials run as numpy multiplies and
adds, which round as the C Horner loop does, and exp goes through libm's
``math.exp``.  Baseline rows are therefore the bytes scipy would give,
without importing it.

Monte Carlo evaluation is sharded into fixed-size blocks, each with its own
counter-based substream and scored by :func:`codec.score_draws`, and the
per-shard accumulators are merged in shard order.  Results are therefore
byte-identical for a fixed seed no matter how many worker threads run the
shards.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cephes import ndtr
from .codec import ConcentricCode, score_draws
from .streams import SHARD_VECTORS, substream

MIN_SAMPLES = 1000  # fewest Monte Carlo samples a codebook is measured from
PARETO_RATE_BIN = 1e-3  # bits/sample; pareto_filter keeps one point per bin


@dataclass(frozen=True)
class RDPoint:
    method: str
    n: int
    J: int
    rate: float
    distortion: float
    stderr: float = 0.0
    seed: int = 0
    samples: int = 0


CSV_HEADER = "method,n,J,rate_bits,distortion,stderr,seed,samples"


def rd_points_to_csv(points) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for p in points:
        out.write(
            f"{p.method},{p.n},{p.J},{float(p.rate)!r},{float(p.distortion)!r},"
            f"{float(p.stderr)!r},{p.seed},{p.samples}\n"
        )
    return out.getvalue()


@dataclass(frozen=True)
class EmpiricalDistortion:
    distortion: float
    stderr: float
    probs: tuple[float, ...]
    low_count_spheres: tuple[int, ...] = ()


def empirical_distortion(
    code: ConcentricCode,
    samples: int,
    seed: int,
    sigma: float = 1.0,
    threads: int = 1,
) -> EmpiricalDistortion:
    """Monte Carlo per-sample distortion with its standard error and the
    observed subcodebook hit frequencies; :func:`empirical_distortions` of
    one code."""
    return empirical_distortions([code], samples, seed, sigma, threads)[0]


def empirical_distortions(
    codes,
    samples: int,
    seed: int,
    sigma: float = 1.0,
    threads: int = 1,
) -> list[EmpiricalDistortion]:
    """:func:`empirical_distortion` of every code, in order, from one pass
    over the shards.  Each shard scores the codes of each dimension with
    :func:`codec.score_draws` and sums each code's per-row distances whole,
    as one block of ``SHARD_VECTORS`` rows would, so each result equals the
    one-code call.  The shards run on ``threads`` worker threads, which
    change no bit of the results; the pool raises ``ValueError`` below 1."""
    codes = list(codes)
    if not codes:
        return []
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    groups: dict[int, list[int]] = {}  # n -> indices into codes
    for i, code in enumerate(codes):
        groups.setdefault(code.n, []).append(i)

    def run_shard(args):
        shard, size = args
        dists = [np.empty(size) for _ in codes]
        hits = {}
        for members in groups.values():
            hits.update(zip(members, score_draws(substream(seed, "eval", shard), size, sigma,
                                                 [codes[i] for i in members],
                                                 [dists[i] for i in members])))
        sq = np.empty(size)
        for code, v in zip(codes, dists):
            v /= code.n
        return [(float(v.sum()), float(np.multiply(v, v, out=sq).sum()), hits[i])
                for i, v in enumerate(dists)]

    jobs = list(enumerate(min(SHARD_VECTORS, samples - lo) for lo in range(0, samples, SHARD_VECTORS)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_shard, jobs))

    out = []
    for i, code in enumerate(codes):
        total = total_sq = 0.0
        hits = np.zeros(code.J, dtype=np.int64)
        for part_sum, part_sq, part_hits in (parts[i] for parts in results):  # fixed shard order
            total += part_sum
            total_sq += part_sq
            hits += part_hits
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0) * samples / max(samples - 1, 1)
        out.append(
            EmpiricalDistortion(
                distortion=mean,
                stderr=math.sqrt(var / samples),
                probs=tuple(hits / samples),
                low_count_spheres=tuple(int(j) for j, h in enumerate(hits) if h < 10),
            )
        )
    return out


def entropy_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def rate_variable(code: ConcentricCode, probs) -> float:
    """Bits per sample with an entropy-coded sphere index: the index entropy
    of ``probs`` plus the probability-weighted exact log2 subcodebook sizes."""
    p = np.asarray(probs, dtype=float)
    if not (np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("probabilities must be finite and sum to 1")
    log_size_mean = 0.0  # added left to right, so no BLAS kernel picks the order
    for pj, m in zip(p.tolist(), code.sizes):
        log_size_mean += pj * math.log2(m)
    return (entropy_bits(p) + log_size_mean) / code.n


def rate_fixed(code: ConcentricCode) -> float:
    """Bits per sample without entropy coding: log2 of the exact total size."""
    return math.log2(sum(code.sizes)) / code.n


# ---------------------------------------------------------------------------
# scalar-quantizer baselines and bounds


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _uniform_quantizer_curve(steps, sigma: float, optimal_codewords: bool, method: str) -> list[RDPoint]:
    """One point per step; the normal CDF of every step's cell edges is
    evaluated in one vectorised call."""
    # cells are [(k-1/2)step, (k+1/2)step); the center cell straddles 0 so the
    # step -> inf limit is a single cell with rate 0 and distortion sigma^2.
    # Cell k's upper edge is cell k+1's lower edge, so each edge appears once.
    steps = [float(s) for s in steps]
    if any(s <= 0 for s in steps):
        raise ValueError("quantizer steps must be positive")
    if not steps:
        return []
    grids = []
    for step in steps:
        k_max = max(1, int(math.ceil(10.0 * sigma / step + 0.5)))
        edges = (np.arange(-k_max, k_max + 2) - 0.5) * step / sigma
        edges[0] = -np.inf
        edges[-1] = np.inf
        grids.append(edges)
    cdfs = np.split(ndtr(np.concatenate(grids)), np.cumsum([e.size for e in grids])[:-1])
    return [
        _uniform_quantizer_point(step, sigma, edges, cdf, optimal_codewords, method)
        for step, edges, cdf in zip(steps, grids, cdfs)
    ]


def _uniform_quantizer_point(step, sigma, edges, cdf, optimal_codewords, method) -> RDPoint:
    mass = cdf[1:] - cdf[:-1]
    ks = np.arange(mass.size) - mass.size // 2
    outer = np.isinf(edges)
    with np.errstate(invalid="ignore"):
        phi = np.where(outer, 0.0, _phi(edges))
        first = phi[:-1] - phi[1:]
        zphi = np.where(outer, 0.0, edges * phi)
        second = mass + zphi[:-1] - zphi[1:]

    keep = mass > 0
    mass, first, second, ks = mass[keep], first[keep], second[keep], ks[keep]
    if optimal_codewords:
        centers = first / mass  # conditional mean, standardized units
    else:
        centers = ks * step / sigma
    distortion = sigma * sigma * float(np.sum(second - 2.0 * centers * first + centers**2 * mass))
    return RDPoint(
        method=method,
        n=1,
        J=1,
        rate=entropy_bits(mass),
        distortion=distortion,
    )


def ecusq_curve(steps, sigma: float = 1.0) -> list[RDPoint]:
    """Uniform thresholds with the codewords on the lattice points."""
    return _uniform_quantizer_curve(steps, sigma, False, "ecusq")


def ecsq_curve(steps, sigma: float = 1.0) -> list[RDPoint]:
    """Uniform thresholds with conditional-mean codewords."""
    return _uniform_quantizer_curve(steps, sigma, True, "ecsq")


DEFAULT_BASELINE_STEPS = tuple(np.geomspace(0.05, 20.0, 48))
DEFAULT_BOUND_RATES = tuple(np.linspace(0.0, 4.0, 41))


def shannon_bound(rates, sigma: float = 1.0) -> list[RDPoint]:
    """Gaussian distortion-rate function sigma^2 4^-R."""
    out = []
    for r in rates:
        if r < 0:
            raise ValueError("rates must be nonnegative")
        out.append(
            RDPoint(method="bound", n=1, J=1, rate=float(r), distortion=sigma * sigma * 2.0 ** (-2.0 * float(r)))
        )
    return out


def pareto_filter(points) -> list[RDPoint]:
    """Keep the best point per rate bin of ``PARETO_RATE_BIN``, then drop
    dominated points.

    The output is sorted by rate with strictly decreasing distortion and does
    not depend on the input order.
    """
    ordered = sorted(points, key=lambda p: (p.rate, p.distortion, p.method))
    best_in_bin: dict[int, RDPoint] = {}
    for p in ordered:
        key = round(p.rate / PARETO_RATE_BIN)
        if key not in best_in_bin or p.distortion < best_in_bin[key].distortion:
            best_in_bin[key] = p
    survivors = []
    floor = math.inf
    for key in sorted(best_in_bin):
        p = best_in_bin[key]
        if p.distortion < floor:
            survivors.append(p)
            floor = p.distortion
    return survivors
