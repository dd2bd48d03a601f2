"""Empirical rate/distortion measurement, scalar-quantizer baselines, and
rate-distortion curve assembly.

Monte Carlo evaluation is sharded into fixed-size blocks, each with its own
counter-based substream, and the per-shard accumulators are merged in shard
order.  Results are therefore byte-identical for a fixed seed no matter how
many worker threads run the shards.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .codec import ConcentricCode, nearest_subcode, sort_by_variant, subcode_distances
from .streams import SHARD_VECTORS, substream


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
    samples: int
    seed: int
    low_count_spheres: tuple[int, ...] = ()


def threads_from_env(explicit: int | None = None) -> int:
    if explicit is not None:
        return max(1, int(explicit))
    return max(1, int(os.environ.get("CPC_THREADS", "1")))


def empirical_distortion(
    code: ConcentricCode,
    samples: int,
    seed: int,
    sigma: float = 1.0,
    threads: int | None = None,
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
    threads: int | None = None,
) -> list[EmpiricalDistortion]:
    """:func:`empirical_distortion` of every code, in order, from one pass
    over the shards.

    Each shard is drawn once per distinct dimension and sorted once per
    variant, and every code of that dimension and variant reads the same
    sorted block, so each result equals the one-code call.
    """
    codes = list(codes)
    if not codes:
        return []
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    groups: dict[int, dict[int, list[int]]] = {}  # n -> variant -> indices into codes
    for i, code in enumerate(codes):
        groups.setdefault(code.n, {}).setdefault(code.variant, []).append(i)
    shard_sizes = []
    left = samples
    while left > 0:
        shard_sizes.append(min(SHARD_VECTORS, left))
        left -= shard_sizes[-1]

    def run_shard(args):
        shard, size = args
        parts = [None] * len(codes)
        for n, by_variant in groups.items():
            x = substream(seed, "eval", shard).standard_normal((size, n))
            x *= sigma
            for variant, members in by_variant.items():
                s = sort_by_variant(x, variant)
                for i in members:
                    assign, mind = nearest_subcode(subcode_distances(s, codes[i]))
                    np.maximum(mind, 0.0, out=mind)
                    mind /= n
                    hits = np.bincount(assign, minlength=codes[i].J)
                    parts[i] = (float(mind.sum()), float((mind * mind).sum()), hits)
        return parts

    jobs = list(enumerate(shard_sizes))
    workers = threads_from_env(threads)
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_shard, jobs))
    else:
        results = [run_shard(job) for job in jobs]

    out = []
    for i, code in enumerate(codes):
        total = 0.0
        total_sq = 0.0
        hits = np.zeros(code.J, dtype=np.int64)
        for parts in results:  # fixed shard order
            part_sum, part_sq, part_hits = parts[i]
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
                samples=samples,
                seed=seed,
                low_count_spheres=tuple(int(j) for j, h in enumerate(hits) if h < 10),
            )
        )
    return out


def entropy_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def rate_variable(code: ConcentricCode, probs=None) -> float:
    """Bits per sample with an entropy-coded sphere index: the index entropy
    plus the probability-weighted exact log2 subcodebook sizes."""
    if probs is None:
        probs = code.probs
    if probs is None:
        raise ValueError("no subcodebook probabilities available")
    p = np.asarray(probs, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    log_sizes = np.array([math.log2(m) for m in code.sizes])
    return (entropy_bits(p) + float(p @ log_sizes)) / code.n


def rate_fixed(code: ConcentricCode) -> float:
    """Bits per sample without entropy coding: log2 of the exact total size."""
    return math.log2(sum(code.sizes)) / code.n


# ---------------------------------------------------------------------------
# scalar-quantizer baselines and bounds


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _uniform_quantizer_point(step: float, sigma: float, optimal_codewords: bool, method: str) -> RDPoint:
    # cells are [(k-1/2)step, (k+1/2)step); the center cell straddles 0 so the
    # step -> inf limit is a single cell with rate 0 and distortion sigma^2
    k_max = max(1, int(math.ceil(10.0 * sigma / step + 0.5)))
    ks = np.arange(-k_max, k_max + 1)
    lo = (ks - 0.5) * step / sigma
    hi = (ks + 0.5) * step / sigma
    lo[0] = -np.inf
    hi[-1] = np.inf

    cdf_lo = special.ndtr(lo)
    cdf_hi = special.ndtr(hi)
    mass = cdf_hi - cdf_lo
    with np.errstate(invalid="ignore"):
        phi_lo = np.where(np.isinf(lo), 0.0, _phi(lo))
        phi_hi = np.where(np.isinf(hi), 0.0, _phi(hi))
        first = phi_lo - phi_hi
        zphi_lo = np.where(np.isinf(lo), 0.0, lo * phi_lo)
        zphi_hi = np.where(np.isinf(hi), 0.0, hi * phi_hi)
        second = mass + zphi_lo - zphi_hi

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
    return [_uniform_quantizer_point(float(s), sigma, False, "ecusq") for s in _checked(steps)]


def ecsq_curve(steps, sigma: float = 1.0) -> list[RDPoint]:
    """Uniform thresholds with conditional-mean codewords."""
    return [_uniform_quantizer_point(float(s), sigma, True, "ecsq") for s in _checked(steps)]


def _checked(steps):
    steps = list(steps)
    if any(s <= 0 for s in steps):
        raise ValueError("quantizer steps must be positive")
    return steps


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


def pareto_filter(points, rate_bin: float = 1e-3) -> list[RDPoint]:
    """Keep the best point per rate bin, then drop dominated points.

    The output is sorted by rate with strictly decreasing distortion and does
    not depend on the input order.
    """
    ordered = sorted(points, key=lambda p: (p.rate, p.distortion, p.method))
    best_in_bin: dict[int, RDPoint] = {}
    for p in ordered:
        key = round(p.rate / rate_bin)
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
