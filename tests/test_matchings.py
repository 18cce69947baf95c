import random

import pytest
from hypothesis import given, settings, strategies as st

from endhered import (
    Arc,
    Matching,
    MatchingError,
    double_factorial,
    enumerate_matchings,
    from_arcs,
    from_permutation,
    left_twist,
    parse_matching,
    random_matching,
    right_twist,
    serialize_matching,
    to_permutation,
)
from endhered.matchings import _enumerate_partner_tuples, _random_matching


def matchings_of_size(n):
    return st.integers(min_value=0, max_value=2**63 - 1).map(
        lambda seed: random_matching(n, seed)
    )


class TestFromArcs:
    def test_paper_example(self):
        m = from_arcs([(1, 3), (2, 6), (4, 5), (7, 8)], 4)
        assert to_permutation(m) == (3, 6, 1, 5, 4, 2, 8, 7)

    def test_empty(self):
        m = from_arcs([], 0)
        assert m.size == 0
        assert to_permutation(m) == ()

    def test_duplicate_point(self):
        with pytest.raises(MatchingError, match="duplicate point 2"):
            from_arcs([(1, 2), (2, 3)], 2)

    def test_out_of_range(self):
        with pytest.raises(MatchingError, match="out of range"):
            from_arcs([(1, 5)], 2)

    def test_self_pair(self):
        with pytest.raises(MatchingError):
            from_arcs([(2, 2), (1, 3)], 2)

    def test_uncovered_point(self):
        with pytest.raises(MatchingError, match="not covered"):
            from_arcs([(1, 2)], 2)

    def test_arc_ordering_enforced(self):
        with pytest.raises(MatchingError):
            Arc(4, 2)


class TestPermutation:
    def test_smallest(self):
        assert to_permutation(from_arcs([(1, 2)], 1)) == (2, 1)

    def test_round_trip(self):
        m = from_arcs([(1, 3), (2, 6), (4, 5), (7, 8)], 4)
        assert from_permutation(to_permutation(m)) == m

    def test_invalid_permutation_rejected(self):
        with pytest.raises(MatchingError):
            from_permutation((2, 3, 1, 4))  # not an involution, has fixed point


class TestEnumeration:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_count_and_distinct(self, n):
        seen = set(enumerate_matchings(n))
        assert len(seen) == double_factorial(2 * n - 1)

    def test_n3_count(self):
        assert sum(1 for _ in enumerate_matchings(3)) == 15

    def test_deterministic_order(self):
        first = list(enumerate_matchings(4))
        second = list(enumerate_matchings(4))
        assert first == second

    def test_order_groups_by_last_insertion(self):
        # size 2: insertion position of the partner of point 1, ascending
        expected = ["1-2 3-4", "1-3 2-4", "1-4 2-3"]
        assert [serialize_matching(m) for m in enumerate_matchings(2)] == expected

    @pytest.mark.parametrize("n", range(0, 8))
    def test_levels_match_recursive_reference(self, n):
        assert list(_enumerate_partner_tuples(n)) == list(recursive_partner_tuples(n))

    def test_negative_size_rejected(self):
        with pytest.raises(MatchingError):
            next(enumerate_matchings(-1))


def recursive_partner_tuples(n):
    """Reference enumerator: the whole (n-1)-level recursion is re-run for
    each of the 2n-1 insertion positions of the partner of point 1."""
    if n == 0:
        yield (0,)
        return
    for t in range(1, 2 * n):
        # new arc (1, t+1); old point q shifts to q+1 if q < t, else q+2
        for sub in recursive_partner_tuples(n - 1):
            pt = [0] * (2 * n + 1)
            pt[1] = t + 1
            pt[t + 1] = 1
            for q in range(1, 2 * n - 1):
                nq = q + 1 if q < t else q + 2
                pq = sub[q]
                pt[nq] = pq + 1 if pq < t else pq + 2
            yield tuple(pt)


class TestRandom:
    def test_empty(self):
        assert random_matching(0, 7).size == 0

    def test_unique_size_one(self):
        assert serialize_matching(random_matching(1, 99)) == "1-2"

    def test_reproducible(self):
        assert random_matching(20, 12345) == random_matching(20, 12345)

    def test_uniform_n3(self):
        counts = {}
        samples = 100_000
        for seed in range(samples):
            m = random_matching(3, seed)
            counts[m] = counts.get(m, 0) + 1
        assert set(counts) == set(enumerate_matchings(3))
        for c in counts.values():
            assert abs(c / samples - 1 / 15) < 0.005


def reference_random_matching(n, rng):
    """Pair the smallest unpaired point with one of the others, chosen by
    rng.randrange: the draw sequence the sampler's output is pinned to."""
    avail = list(range(1, 2 * n + 1))
    partner = [0] * (2 * n + 1)
    while avail:
        a = avail[0]
        b = avail.pop(rng.randrange(1, len(avail)))
        avail.pop(0)
        partner[a] = b
        partner[b] = a
    return Matching(partner)


class TestRandomStream:
    # seeded sample output and every seeded test input depend on this stream
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 31, 64, 65, 200, 500])
    def test_random_matching_matches_reference(self, n):
        for seed in (0, 1, 7, 12345, 20240829, 2**63 - 1):
            assert random_matching(n, seed) == reference_random_matching(n, random.Random(seed))

    def test_shared_rng_consumed_identically(self):
        # monte_carlo_distribution draws all samples from one generator
        ours, ref = random.Random(99), random.Random(99)
        for n in (500, 3, 0, 1, 128, 500):
            assert _random_matching(n, ours) == reference_random_matching(n, ref)
            assert ours.getstate() == ref.getstate()


class TestTwists:
    def test_right_twist_nested_pair(self):
        m = from_arcs([(1, 4), (2, 3)], 2)
        assert right_twist(m) == from_arcs([(1, 3), (2, 4)], 2)

    def test_twist_of_pattern_321_matching(self):
        # matching form of 321 is the triple nesting; its right twist is 123
        nest = from_arcs([(1, 6), (2, 5), (3, 4)], 3)
        cross = from_arcs([(1, 4), (2, 5), (3, 6)], 3)
        assert right_twist(nest) == cross

    @pytest.mark.parametrize("twist", [left_twist, right_twist])
    def test_involution_exhaustive(self, twist):
        for n in range(0, 6):
            for m in enumerate_matchings(n):
                assert twist(twist(m)) == m

    @settings(max_examples=50, deadline=None)
    @given(matchings_of_size(15))
    def test_involution_random(self, m):
        assert left_twist(left_twist(m)) == m
        assert right_twist(right_twist(m)) == m
        assert left_twist(m).size == m.size


class TestSerialization:
    def test_format(self):
        m = from_arcs([(1, 3), (2, 6), (4, 5), (7, 8)], 4)
        assert serialize_matching(m) == "1-3 2-6 4-5 7-8"

    def test_parse_round_trip(self):
        text = "1-3 2-6 4-5 7-8"
        assert serialize_matching(parse_matching(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(MatchingError):
            parse_matching("1-3 25")

    @settings(max_examples=50, deadline=None)
    @given(matchings_of_size(8))
    def test_round_trip_random(self, m):
        assert parse_matching(serialize_matching(m)) == m


def test_partner_involution_invariant():
    for m in enumerate_matchings(4):
        for i in range(1, 9):
            assert m.partner(m.partner(i)) == i
            assert m.partner(i) != i


def test_invalid_partner_maps_rejected():
    with pytest.raises(MatchingError):
        Matching((0, 1, 2))  # fixed points
    with pytest.raises(MatchingError):
        Matching((0, 2, 1, 4, 3, 5))  # odd number of points
    with pytest.raises(MatchingError):
        Matching((5, 2, 1))  # nonzero sentinel at index 0
