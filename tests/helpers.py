"""Shared brute-force oracles, kept deliberately independent of the library's
fast paths: codebooks are enumerated with itertools, not with unrank."""

from itertools import permutations, product

import numpy as np

from cpcodes.codec import VARIANT_II, InitialCodeword


def enumerate_codebook(cw: InitialCodeword) -> np.ndarray:
    """Every codeword of a single permutation codebook, by exhaustion."""
    base = tuple(cw.initial_vector())
    perms = sorted(set(permutations(base)))
    if cw.variant != VARIANT_II:
        return np.array(perms, dtype=float)
    rows = []
    for perm in perms:
        nonzero = [i for i, v in enumerate(perm) if v != 0.0]
        for signs in product((1.0, -1.0), repeat=len(nonzero)):
            row = list(perm)
            for pos, s in zip(nonzero, signs):
                row[pos] = s * row[pos]
            rows.append(row)
    return np.array(rows, dtype=float)


def brute_force_min_distance(x: np.ndarray, codebook: np.ndarray) -> float:
    """Minimum squared distance, computed with the same per-pair arithmetic as
    the encoder (elementwise difference, square, row sum)."""
    best = np.inf
    for start in range(0, len(codebook), 4096):
        block = codebook[start : start + 4096]
        d = np.sum((x[None, :] - block) ** 2, axis=1)
        best = min(best, float(d.min()))
    return best


def random_decreasing_levels(rng, K: int, variant: int, zero_last: bool = False):
    """Strictly decreasing levels with comfortable gaps; nonnegative for
    sign-carrying codebooks, optionally ending at exactly zero."""
    gaps = rng.uniform(0.3, 1.0, size=K)
    levels = np.cumsum(gaps[::-1])[::-1]
    if variant == VARIANT_II:
        if zero_last:
            levels = levels - levels[-1]
    else:
        levels = levels - levels.mean()
    return tuple(float(v) for v in levels)


def sorted_order_distances(X: np.ndarray, W: np.ndarray, variant: int) -> np.ndarray:
    """Squared distance from each row of ``X`` to the same row of ``W``, the
    terms taken in the descending order of the keys (``|x|`` for variant II,
    equal keys in index order) and added left to right."""
    keys = np.abs(X) if variant == VARIANT_II else X
    order = np.argsort(-keys, axis=1, kind="stable")
    terms = (np.take_along_axis(X, order, axis=1) - np.take_along_axis(W, order, axis=1)) ** 2
    total = np.zeros(len(X))
    for column in terms.T:
        total += column
    return total


def monotone(parts) -> bool:
    """The variant 2 search filter: parts nondecreasing."""
    return all(a <= b for a, b in zip(parts, parts[1:]))


def unimodal(parts) -> bool:
    """The variant 1 search filter: the first ``K // 2`` parts nondecreasing
    and the rest nonincreasing, with no order between the two runs."""
    half = len(parts) // 2
    head, tail = parts[:half], parts[half:]
    return monotone(head) and all(a >= b for a, b in zip(tail, tail[1:]))


def chi_cells_mp(gains, degrees):
    """The chi law's mean and, for each cell cut at the midpoints between
    ``gains``, its mass under each of ``degrees`` degrees of freedom, as
    mpmath numbers at the working precision; the mean is that of
    ``degrees[0]``."""
    import mpmath as mp

    n = mp.mpf(degrees[0])
    mean = mp.sqrt(2) * mp.exp(mp.loggamma((n + 1) / 2) - mp.loggamma(n / 2))
    cuts = [mp.mpf(0)] + [(mp.mpf(g) + h) / 2 for g, h in zip(gains, gains[1:])] + [mp.inf]
    masses = [[mp.gammainc(mp.mpf(k) / 2, lo * lo / 2, hi * hi / 2, regularized=True) for k in degrees]
              for lo, hi in zip(cuts, cuts[1:])]
    return mean, masses
