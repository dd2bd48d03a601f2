"""Exact combinatorics of compositions, partitions, codebook sizes, and
fixed-rate point counts.

A codebook's size depends only on the multiset of its composition's parts, a
partition of n, so size searches run over :func:`partitions`; the order a
design gives the parts (the paper's search filters) is the concern of
:func:`wsc.allocate_compositions`.  All codeword counts are exact Python
integers; rates are taken as ``log2`` of an exact integer only at the last
step, so equal counts collapse exactly when censusing distinct rate points.
Sizes here carry no sign bits, whose count depends on the levels:
:class:`codec.InitialCodeword` owns that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured work bound."""


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers; the multiplicity pattern of levels."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composition needs at least one part")
        if not all(isinstance(p, int) and not isinstance(p, bool) and p >= 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers, got {self.parts}")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_levels(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def multinomial_size(parts: Sequence[int]) -> int:
    """Number of distinct arrangements of a word with multiplicities
    ``parts``, in any order."""
    return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))


def group_starts(c: Composition) -> list[int]:
    """Start offsets of the level groups: group i is ``parts[i]`` indices from ``starts[i]``."""
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


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """Yield all ``2**(n-1)`` ordered compositions of ``n`` exactly once, via
    binary cut points: the brute-force pool, for small ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for num_cuts in range(n):
        for cuts in combinations(range(1, n), num_cuts):
            bounds = (0, *cuts, n)
            yield Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of ``n`` as tuples with nonincreasing parts, by
    number of parts."""
    for k in range(1, n + 1):
        for parts in _nondecreasing_parts(n, k, 1):
            yield parts[::-1]


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
    seen = {multinomial_size(p) for p in partitions(n)}
    return tuple(sorted(seen))


@dataclass(frozen=True)
class RatePointCensus:
    """Distinct fixed-rate codeword totals reachable with ``J`` subcodebooks.

    ``sums`` holds every multiset sum, sorted and read-only; ``count`` is
    taken from it without boxing a value.  The sums are a function of
    ``(n, J)``, so a census compares and hashes by ``(n, J, count)``.
    """

    n: int
    J: int
    count: int
    sums: np.ndarray = field(repr=False, compare=False)


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
