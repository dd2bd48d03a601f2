"""Exact combinatorics of compositions, codebook sizes, and fixed-rate point counts.

All codeword counts are exact Python integers; rates are taken as ``log2`` of
an exact integer only at the last step, so equal counts collapse exactly when
censusing distinct rate points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator

import numpy as np

COMPOSITION_FILTERS = ("none", "variant2_monotone", "variant1_unimodal")


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured work bound."""


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers; the multiplicity pattern of levels."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if not all(isinstance(p, int) and p >= 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers, got {self.parts}")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_levels(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def multinomial_size(c: Composition) -> int:
    """Number of distinct arrangements of a word with multiplicities ``c.parts``."""
    total = math.factorial(c.n)
    for p in c.parts:
        total //= math.factorial(p)
    return total


def variant2_size(c: Composition, h: int) -> int:
    """Codebook size when each of ``h`` nonzero entries carries a free sign.

    Sign freedom applies to whole level groups, and only the last (smallest)
    level can be zero, so the only consistent values are ``h = n`` (all levels
    nonzero) and ``h = n - parts[-1]`` (last level zero).
    """
    n = c.n
    valid = {n, n - c.parts[-1]}
    if h not in valid:
        raise ValueError(
            f"h={h} inconsistent with level groups of {c}: must be one of {sorted(valid)}"
        )
    return (1 << h) * multinomial_size(c)


def index_groups(c: Composition) -> list[range]:
    """Consecutive 0-based index ranges, one per level, covering ``0..n-1``."""
    groups = []
    start = 0
    for p in c.parts:
        groups.append(range(start, start + p))
        start += p
    return groups


def group_starts(c: Composition) -> list[int]:
    """Start offsets of the level groups (for ``np.add.reduceat`` and friends)."""
    starts = [0]
    for p in c.parts[:-1]:
        starts.append(starts[-1] + p)
    return starts


def _nondecreasing_parts(total: int, k: int, minimum: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // k + 1):
        for rest in _nondecreasing_parts(total - first, k - 1, first):
            yield (first,) + rest


def _nonincreasing_parts(total: int, k: int) -> Iterator[tuple[int, ...]]:
    for p in _nondecreasing_parts(total, k, 1):
        yield tuple(reversed(p))


def enumerate_compositions(n: int, filt: str = "none") -> Iterator[Composition]:
    """Yield every ordered composition of ``n`` passing ``filt``, exactly once.

    ``none`` yields all ``2**(n-1)`` compositions via binary cut points.
    ``variant2_monotone`` keeps only nondecreasing part sequences.
    ``variant1_unimodal`` keeps sequences nondecreasing on the first
    ``K // 2`` positions and nonincreasing on the rest (the split index is
    unconstrained).  The filtered forms are generated directly rather than by
    rejection, so they stay cheap for block lengths where ``2**(n-1)`` is not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if filt not in COMPOSITION_FILTERS:
        raise ValueError(f"unknown filter {filt!r}; expected one of {COMPOSITION_FILTERS}")

    if filt == "none":
        for num_cuts in range(n):
            for cuts in combinations(range(1, n), num_cuts):
                bounds = (0, *cuts, n)
                yield Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    elif filt == "variant2_monotone":
        for k in range(1, n + 1):
            for parts in _nondecreasing_parts(n, k, 1):
                yield Composition(parts)
    else:  # variant1_unimodal
        for k in range(1, n + 1):
            head_len = k // 2
            tail_len = k - head_len
            if head_len == 0:
                for tail in _nonincreasing_parts(n, tail_len):
                    yield Composition(tail)
                continue
            for head_sum in range(head_len, n - tail_len + 1):
                for head in _nondecreasing_parts(head_sum, head_len, 1):
                    for tail in _nonincreasing_parts(n - head_sum, tail_len):
                        yield Composition(head + tail)


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of ``n`` as tuples with nonincreasing parts."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(n, n)


def partition_count(n: int) -> int:
    """Number of integer partitions of ``n`` (exact, by the Euler recurrence)."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def distinct_multinomials(n: int) -> tuple[int, ...]:
    """Sorted distinct codebook sizes over all integer partitions of ``n``.

    Different partitions can produce the same count; e.g. for n=7 both
    (3,2,2) and (4,1,1,1) give 210, so the set is smaller than the number
    of partitions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seen = {multinomial_size(Composition(p)) for p in partitions(n)}
    return tuple(sorted(seen))


@dataclass(frozen=True)
class RatePointCensus:
    """Distinct fixed-rate codeword totals reachable with ``J`` subcodebooks.

    ``sums`` holds every multiset sum, sorted and read-only; ``count`` is
    taken from it without boxing a value, and ``distinct_sums``, as Python
    ints, is built on first read.  The sums are a function of ``(n, J)``, so
    a census compares and hashes by ``(n, J, count)``.
    """

    n: int
    J: int
    count: int
    sums: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def distinct_sums(self) -> tuple[int, ...]:
        keep = np.ones(len(self.sums), dtype=bool)
        keep[1:] = self.sums[1:] != self.sums[:-1]
        return tuple(self.sums[keep].tolist())


def rate_point_census(n: int, J: int, limit: int = 50_000_000) -> RatePointCensus:
    """Census of distinct values of ``sum(M_j)`` over multisets of ``J`` sizes.

    The sizes are drawn with replacement from :func:`distinct_multinomials`.
    Raises :class:`ResourceLimitError` when the multiset-choose bound on the
    enumeration exceeds ``limit``.  Besides the sorted sums, counting holds
    the previous step of :func:`_multiset_sums` and then one boolean per sum.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if J < 1:
        raise ValueError("J must be >= 1")
    if partition_count(n) > limit:
        raise ResourceLimitError(f"partition enumeration for n={n} exceeds limit={limit}")
    sizes = distinct_multinomials(n)
    bound = math.comb(len(sizes) + J - 1, J)
    if bound > limit:
        raise ResourceLimitError(
            f"census for n={n}, J={J} needs {bound} multisets, more than limit={limit}"
        )
    sums = _multiset_sums(sizes, J)
    sums.sort()
    sums.flags.writeable = False
    count = 1 + int(np.count_nonzero(sums[1:] != sums[:-1]))
    return RatePointCensus(n=n, J=J, count=count, sums=sums)


def _multiset_sums(sizes: tuple[int, ...], J: int) -> np.ndarray:
    """``sum(chosen)`` for every multiset of ``J`` entries of the sorted ``sizes``.

    The J-tuples of nondecreasing indices are built one length at a time and
    kept grouped by their first index, so those that start at index ``i`` or
    later are a suffix ``flat[offs[i]:]``.  Each length is written group by
    group into one array, which at the last length has exactly
    ``comb(len(sizes) + J - 1, J)`` entries.  It is int64 while every sum
    fits and holds Python ints otherwise, through the same arithmetic.
    """
    dtype = np.int64 if J * sizes[-1] < 2**63 else object
    first = np.array(sizes, dtype=dtype)
    flat, offs = first, range(len(sizes))
    for _ in range(J - 1):
        out = np.empty(sum(len(flat) - o for o in offs), dtype=dtype)
        starts = []
        lo = 0
        for size, o in zip(first, offs):
            starts.append(lo)
            hi = lo + len(flat) - o
            np.add(size, flat[o:], out=out[lo:hi])
            lo = hi
        flat, offs = out, starts
    return flat


def max_rate_gap(n: int) -> float:
    """Largest spacing between adjacent fixed-rate points, in bits per sample.

    The widest interval sits between the one-codeword rate 0 and the next
    achievable rate log2(n)/n; spacings above that point only shrink.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.log2(n) / n
