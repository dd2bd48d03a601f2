"""Empirical rate/distortion measurement, scalar-quantizer baselines, and
rate-distortion curve assembly.

The scalar-quantizer baselines evaluate the normal CDF with a port of Cephes
``ndtr`` (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
1989), the routine behind ``scipy.special.ndtr``. It reproduces that routine
bit for bit: the rational polynomials run as numpy multiplies and adds, which
round as the C Horner loop does, and exp goes through libm's ``math.exp``.
Baseline rows are therefore the bytes scipy would give, without importing it.

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

from .codec import ConcentricCode, nearest_subcode, sort_by_variant, sorted_distances
from .streams import SHARD_VECTORS, normal_blocks, substream

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
    samples: int
    seed: int
    low_count_spheres: tuple[int, ...] = ()


def threads_from_env(explicit: int | None = None) -> int:
    """``explicit``, else ``CPC_THREADS``, else 1; ``ValueError`` unless a positive integer."""
    value = (os.environ.get("CPC_THREADS") or "1") if explicit is None else explicit
    threads = int(value)
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {value!r}")
    return threads


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

    Each shard is drawn from its substream once per distinct dimension,
    ``CHUNK_ROWS`` rows at a time (:func:`streams.normal_blocks`).  Each chunk
    is sorted once per variant into one coordinate-major block, and every
    code of that dimension and variant scores the same block.  The shard
    keeps each code's per-row distances and sums them whole, as one block of
    ``SHARD_VECTORS`` rows would, so each result equals the one-code call and
    a worker's working set is one chunk plus one distance vector per code.
    """
    codes = list(codes)
    if not codes:
        return []
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    groups: dict[int, dict[int, list[int]]] = {}  # n -> variant -> indices into codes
    for i, code in enumerate(codes):
        groups.setdefault(code.n, {}).setdefault(code.variant, []).append(i)

    def run_shard(args):
        shard, size = args
        dists = [np.empty(size) for _ in codes]
        hits = [np.zeros(code.J, dtype=np.int64) for code in codes]
        for n, by_variant in groups.items():
            for lo, x in normal_blocks(substream(seed, "eval", shard), size, n, sigma):
                for variant, members in by_variant.items():
                    sT = np.ascontiguousarray(sort_by_variant(x, variant).T)
                    for i in members:
                        assign, mind = nearest_subcode(sorted_distances(sT, codes[i]))
                        np.divide(mind, n, out=dists[i][lo : lo + len(mind)])
                        hits[i] += np.bincount(assign, minlength=codes[i].J)
        return [(float(d.sum()), float((d * d).sum()), h) for d, h in zip(dists, hits)]

    jobs = list(enumerate(min(SHARD_VECTORS, samples - lo) for lo in range(0, samples, SHARD_VECTORS)))
    with ThreadPoolExecutor(max_workers=threads_from_env(threads)) as pool:
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
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = math.sqrt(0.5)


def _horner(x, coefs, monic: bool):
    """Cephes ``polevl`` (``monic=False``) or ``p1evl`` (``monic=True``):
    one rounded multiply and one rounded add per step, as the C loop does."""
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


def _erf_small(x):
    """Cephes ``erf`` for ``|x| <= 1``."""
    z = x * x
    return x * _horner(z, _ERF_T, False) / _horner(z, _ERF_U, True)


def _erfc_tail(z):
    """Cephes ``erfc`` for ``z >= sqrt(1/2)`` (or NaN)."""
    out = np.zeros_like(z)  # exp(-z*z) underflows: Cephes returns 0
    mid = z < 1.0
    out[mid] = 1.0 - _erf_small(z[mid])
    with np.errstate(over="ignore"):
        nz = -z * z
    live = ~(mid | (nz < -_MAXLOG))
    zl = z[live]
    # exp through libm, as the compiled Cephes calls it; numpy's vectorised
    # exp differs from libm in the last bit for some arguments
    e = np.array([math.exp(v) for v in nz[live].tolist()])
    near = zl < 8.0
    y = np.empty_like(zl)
    for sel, num, den in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):  # NaN goes far
        if sel.any():
            x = zl[sel]
            y[sel] = e[sel] * _horner(x, num, False) / _horner(x, den, True)
    out[live] = y
    return out


def _ndtr(a):
    """Standard normal CDF of every element of ``a``, bit for bit the
    Cephes ``ndtr`` that ``scipy.special.ndtr`` evaluates."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    small = z < _SQRT1_2
    out = np.empty_like(x)
    out[small] = 0.5 + 0.5 * _erf_small(x[small])
    big = ~small
    y = 0.5 * _erfc_tail(z[big])
    out[big] = np.where(x[big] > 0, 1.0 - y, y)
    return out


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
    cdfs = np.split(_ndtr(np.concatenate(grids)), np.cumsum([e.size for e in grids])[:-1])
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
