import math
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from helpers import monotone, unimodal
from hypothesis import given, strategies as st

from cpcodes.combinatorics import (
    Composition,
    ResourceLimitError,
    distinct_multinomials,
    enumerate_compositions,
    group_starts,
    multinomial_size,
    partition_count,
    partitions,
    rate_point_census,
)
from cpcodes.codec import VARIANT_II, InitialCodeword
from cpcodes.wsc import _ARRANGEMENTS

# complete table of distinct fixed-rate point counts, n=2..9 x J=1..4
RATE_POINT_TABLE = {
    2: (2, 3, 4, 5),
    3: (3, 6, 10, 15),
    4: (5, 15, 33, 56),
    5: (7, 27, 68, 132),
    6: (11, 60, 207, 517),
    7: (14, 97, 415, 1202),
    8: (20, 186, 1038, 3888),
    9: (27, 335, 2440, 11911),
}


class TestComposition:
    def test_valid(self):
        c = Composition((3, 2, 2))
        assert c.n == 7 and c.num_levels == 3

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (1.5, 2), (True, 2, 3)])
    def test_invalid_parts(self, bad):
        with pytest.raises(ValueError):
            Composition(tuple(bad))


class TestMultinomialSize:
    def test_colliding_partitions(self):
        # two different partitions of 7 give the same codebook size
        assert multinomial_size(Composition((3, 2, 2))) == 210
        assert multinomial_size(Composition((4, 1, 1, 1))) == 210

    def test_all_distinct(self):
        assert multinomial_size(Composition((1, 1, 1, 1))) == 24

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_single_part(self, n):
        assert multinomial_size(Composition((n,))) == 1

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.randoms())
    def test_order_invariant(self, parts, rnd):
        shuffled = list(parts)
        rnd.shuffle(shuffled)
        assert multinomial_size(Composition(tuple(parts))) == multinomial_size(
            Composition(tuple(shuffled))
        )


class TestVariant2Size:
    """A sign-carrying codebook's size, which InitialCodeword owns: one free
    sign per entry of a nonzero level."""

    def test_examples(self):
        assert InitialCodeword(Composition((2,)), (1.0,), VARIANT_II).size == 4
        assert InitialCodeword(Composition((1, 1)), (1.0, 0.0), VARIANT_II).size == 4
        assert InitialCodeword(Composition((1, 1)), (2.0, 1.0), VARIANT_II).size == 8

    def test_full_sign_freedom(self):
        c = Composition((2, 3, 1))
        assert InitialCodeword(c, (3.0, 2.0, 1.0), VARIANT_II).size == 2**6 * multinomial_size(c)
        assert InitialCodeword(c, (3.0, 2.0, 0.0), VARIANT_II).size == 2**5 * multinomial_size(c)


class TestEnumerateCompositions:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_unfiltered_count(self, n):
        comps = list(enumerate_compositions(n))
        assert len(comps) == 2 ** (n - 1)
        assert len(set(c.parts for c in comps)) == len(comps)
        assert all(c.n == n for c in comps)

    # The search filters survive as the allocation's arrangement table: each
    # partition's arrangement is the least composition its filter keeps.
    def test_monotone_n4(self):
        got = {_ARRANGEMENTS["variant2_monotone"](p) for p in partitions(4)}
        assert got == {(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)}

    @pytest.mark.parametrize("filt", ["variant2_monotone", "variant1_unimodal"])
    def test_n1(self, filt):
        assert [_ARRANGEMENTS[filt](p) for p in partitions(1)] == [(1,)]

    @pytest.mark.parametrize("filt", ["variant2_monotone", "variant1_unimodal"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_filters_match_brute_force(self, n, filt):
        keep = monotone if filt == "variant2_monotone" else unimodal
        least = {}
        for parts in sorted(c.parts for c in enumerate_compositions(n) if keep(c.parts)):
            least.setdefault(tuple(sorted(parts, reverse=True)), parts)
        assert least == {p: _ARRANGEMENTS[filt](p) for p in partitions(n)}


class TestIndexGroups:
    """Level group i covers ``parts[i]`` indices from ``group_starts(c)[i]``."""

    def test_examples(self):
        assert group_starts(Composition((3, 2, 2))) == [0, 3, 5]
        assert group_starts(Composition((7,))) == [0]
        assert group_starts(Composition((1, 1))) == [0, 1]

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    def test_partition_of_indices(self, parts):
        c = Composition(tuple(parts))
        groups = [range(s, s + p) for s, p in zip(group_starts(c), c.parts)]
        flat = [i for g in groups for i in g]
        assert flat == list(range(c.n))
        assert [len(g) for g in groups] == list(parts)


class TestPartitions:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_each_partition_once(self, n):
        got = list(partitions(n))
        assert len(got) == len(set(got)) == partition_count(n)
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) and p[-1] >= 1
                   for p in got)


class TestDistinctMultinomials:
    def test_n4(self):
        assert distinct_multinomials(4) == (1, 4, 6, 12, 24)

    def test_n2(self):
        assert distinct_multinomials(2) == (1, 2)

    def test_n7_collapses(self):
        values = distinct_multinomials(7)
        assert len(values) == 14
        # strictly fewer values than partitions because of collisions
        assert partition_count(7) == 15

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_partition_multiset(self, n):
        sizes = Counter(multinomial_size(Composition(p)) for p in partitions(n))
        assert tuple(sorted(sizes)) == distinct_multinomials(n)
        assert len(distinct_multinomials(n)) == RATE_POINT_TABLE[n][0]


def enumerated_census(n, J):
    """Distinct multiset sums by enumerating every multiset, one at a time."""
    sizes = distinct_multinomials(n)
    return tuple(sorted({sum(chosen) for chosen in combinations_with_replacement(sizes, J)}))


def distinct_sums(census):
    """The census's distinct sums, ascending."""
    return tuple(dict.fromkeys(census.sums.tolist()))


class TestRatePointCensus:
    @pytest.mark.parametrize("n", sorted(RATE_POINT_TABLE))
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    def test_full_table(self, n, J):
        assert rate_point_census(n, J).count == RATE_POINT_TABLE[n][J - 1]

    def test_single_sphere_equals_distinct_sizes(self):
        for n in range(2, 8):
            census = rate_point_census(n, 1)
            assert distinct_sums(census) == distinct_multinomials(n)

    def test_elements_at_least_J(self):
        census = rate_point_census(5, 3)
        assert all(s >= 3 for s in census.sums)

    @pytest.mark.parametrize("n", range(2, 12))
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    def test_matches_enumeration(self, n, J):
        census = rate_point_census(n, J)
        assert distinct_sums(census) == enumerated_census(n, J)
        assert census.count == len(distinct_sums(census))

    @pytest.mark.parametrize("J", [1, 2])
    def test_sums_past_int64(self, J):
        # 21! > 2**63, so the sums are held as Python ints
        assert max(distinct_multinomials(21)) >= 2**63
        census = rate_point_census(21, J)
        assert census.sums.dtype == object
        assert distinct_sums(census) == enumerated_census(21, J)

    def test_hashable_and_comparable(self):
        a, b = rate_point_census(6, 3), rate_point_census(6, 3)
        assert a == b and hash(a) == hash(b)
        assert a != rate_point_census(6, 2)
        assert len({a, b, rate_point_census(7, 3)}) == 2

    def test_counts_without_boxing(self):
        """The census peaks at the sorted sums plus the last step's input and
        one boolean per sum; numpy registers its buffers with tracemalloc."""
        entries = math.comb(len(distinct_multinomials(13)) + 3, 4)
        tracemalloc.start()
        try:
            census = rate_point_census(13, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert census.count > 0
        assert peak <= 1.6 * 8 * entries, peak / (8 * entries)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            rate_point_census(9, 4, limit=10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            rate_point_census(1, 2)
