import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from endhered import (
    EndheredPattern,
    Matching,
    Occurrence,
    PatternError,
    as_matching,
    count_occurrences,
    distribution_bruteforce,
    distributions_bruteforce,
    enumerate_matchings,
    find_occurrences,
    from_arcs,
    joint_distribution_bruteforce,
    left_twist,
    monte_carlo_distribution,
    random_matching,
    right_twist,
    wilf_classes,
)
from endhered.corpus import DEFAULT_PATTERNS
from endhered.patterns import _census, _counter
from test_matchings import recursive_partner_tuples

P = EndheredPattern.from_string


class TestPattern:
    def test_parse_digits(self):
        assert P("132").perm == (1, 3, 2)

    def test_parse_comma_form(self):
        assert EndheredPattern.from_string("10,1,2,3,4,5,6,7,8,9").size == 10

    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1,2", "1,a"])
    def test_rejects_bad_comma_tokens(self, text):
        with pytest.raises(PatternError, match=re.escape(repr(text))):
            P(text)

    def test_rejects_non_permutation(self):
        with pytest.raises(PatternError):
            P("122")
        with pytest.raises(PatternError):
            P("")

    def test_inverse(self):
        assert P("231").inverse == (3, 1, 2)

    def test_twist_images(self):
        assert P("321").reverse() == P("123")
        assert P("231").reverse() == P("132")
        assert P("321").complement() == P("123")
        assert P("132").complement() == P("312")
        assert P("213").complement() == P("231")


class TestAsMatching:
    def test_21(self):
        assert as_matching(P("21")) == from_arcs([(1, 4), (2, 3)], 2)

    def test_12(self):
        assert as_matching(P("12")) == from_arcs([(1, 3), (2, 4)], 2)

    def test_231(self):
        assert as_matching(P("231")) == from_arcs([(1, 6), (2, 4), (3, 5)], 3)

    @pytest.mark.parametrize("name", ["1", "12", "21", "123", "321", "132", "213", "231", "312"])
    def test_unique_occurrence_at_origin(self, name):
        pat = P(name)
        assert find_occurrences(as_matching(pat), pat) == [Occurrence(1, pat.size + 1)]


class TestFindOccurrences:
    def test_triple_nest_21(self):
        m = from_arcs([(1, 6), (2, 5), (3, 4)], 3)
        assert find_occurrences(m, P("21")) == [Occurrence(1, 5), Occurrence(2, 4)]

    def test_crossing_12(self):
        m = from_arcs([(1, 3), (2, 4)], 2)
        assert find_occurrences(m, P("12")) == [Occurrence(1, 3)]

    def test_no_consecutive_block(self):
        m = from_arcs([(1, 3), (2, 6), (4, 5), (7, 8)], 4)
        assert find_occurrences(m, P("21")) == []

    def test_count_triple_nest_321(self):
        assert count_occurrences(from_arcs([(1, 6), (2, 5), (3, 4)], 3), P("321")) == 1

    def test_count_empty_matching(self):
        assert count_occurrences(from_arcs([], 0), P("21")) == 0

    def test_count_nested_pair(self):
        assert count_occurrences(from_arcs([(1, 4), (2, 3)], 2), P("21")) == 1

    def test_start_points_overlap_bound(self):
        # overlapping occurrences share at most p-1 starting points
        for n in range(1, 6):
            for m in enumerate_matchings(n):
                for pat in (P("21"), P("321")):
                    occs = find_occurrences(m, pat)
                    starts = [o.start for o in occs]
                    assert starts == sorted(starts)
                    assert len(set(starts)) == len(starts)


def occurrences_by_definition(m, pat):
    """p consecutive starting points whose partners form a consecutive block
    of ending points that, read left to right, join the starting points in
    the order given by the pattern."""
    p = pat.size
    found = []
    for a in range(1, 2 * m.size - p + 2):
        window = range(a, a + p)
        partners = [m.partner(s) for s in window]
        if any(q < s for q, s in zip(partners, window)):
            continue
        low = min(partners)
        if sorted(partners) != list(range(low, low + p)):
            continue
        reading = tuple(m.partner(e) - a + 1 for e in range(low, low + p))
        if reading == pat.perm:
            found.append(Occurrence(a, low))
    return found


def inflate(base, pats):
    """Replace the k-th arc of ``base`` (by left end) with a copy of pats[k]."""
    block = {}
    for k, arc in enumerate(base.arcs()):
        block[arc.left] = block[arc.right] = k
    first_start, arcs, pos = {}, [], 0
    for i in range(1, 2 * base.size + 1):
        k = block[i]
        pat = pats[k]
        if base.partner(i) > i:
            first_start[k] = pos + 1
        else:
            arcs += [(first_start[k] + s - 1, pos + t) for t, s in enumerate(pat.perm, 1)]
        pos += pat.size
    return from_arcs(arcs, pos // 2)


ALL_SMALL_PATTERNS = [
    EndheredPattern(perm) for p in range(1, 5) for perm in permutations(range(1, p + 1))
]


class TestKernelMatchesDefinition:
    def test_inflate_plants_each_block(self):
        pats = [P("2413"), P("1"), P("21")]
        m = inflate(from_arcs([(1, 6), (2, 4), (3, 5)], 3), pats)
        assert m.size == 7
        assert occurrences_by_definition(m, P("2413")) == [Occurrence(1, 11)]
        assert occurrences_by_definition(m, P("21")) == [Occurrence(6, 9)]

    @pytest.mark.parametrize("n", range(0, 6))
    def test_all_small_matchings(self, n):
        for m in enumerate_matchings(n):
            for pat in ALL_SMALL_PATTERNS:
                assert find_occurrences(m, pat) == occurrences_by_definition(m, pat), (m, pat)

    @pytest.mark.parametrize("n", [6, 9, 17, 33, 60])
    def test_random_matchings(self, n):
        for seed in range(8):
            m = random_matching(n, seed)
            for pat in ALL_SMALL_PATTERNS:
                assert find_occurrences(m, pat) == occurrences_by_definition(m, pat), (m, pat)

    @pytest.mark.parametrize("seed", range(6))
    def test_inflated_matchings(self, seed):
        # pattern copies planted all over a long matching, so that hits and
        # near misses occur far from its start
        rng = random.Random(seed)
        base = random_matching(15, seed)
        m = inflate(base, [rng.choice(ALL_SMALL_PATTERNS) for _ in range(base.size)])
        for pat in ALL_SMALL_PATTERNS:
            assert find_occurrences(m, pat) == occurrences_by_definition(m, pat), (m, pat)


def counts_by_definition(m, pats):
    return [len(occurrences_by_definition(m, pat)) for pat in pats]


ALL_SMALL_INVS = [pat.inverse for pat in ALL_SMALL_PATTERNS]
# descending patterns nest into stems, so partner difference -1 is everywhere
STEMS = [P("21"), P("321"), P("4321"), P("213"), P("2143")]


class TestCountsKernel:
    @pytest.mark.parametrize("n", range(0, 6))
    def test_all_small_patterns_in_one_call(self, n):
        for m in enumerate_matchings(n):
            got = _counter(ALL_SMALL_INVS)(m.partner_map, 2 * n)
            assert got == counts_by_definition(m, ALL_SMALL_PATTERNS), m

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**32))
    def test_random_matchings(self, n, seed):
        m = random_matching(n, seed)
        assert _counter(ALL_SMALL_INVS)(m.partner_map, 2 * n) == counts_by_definition(
            m, ALL_SMALL_PATTERNS
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.data())
    def test_stem_heavy_matchings(self, seed, data):
        base = random_matching(data.draw(st.integers(min_value=1, max_value=14)), seed)
        m = inflate(base, data.draw(st.lists(st.sampled_from(STEMS), min_size=base.size,
                                             max_size=base.size)))
        assert _counter(ALL_SMALL_INVS)(m.partner_map, 2 * m.size) == counts_by_definition(
            m, ALL_SMALL_PATTERNS
        )

    def test_repeated_partner_order(self):
        m = from_arcs([(1, 8), (2, 7), (3, 6), (4, 5)], 4)
        invs = [P("21").inverse, P("12").inverse, P("21").inverse, P("321").inverse]
        assert _counter(invs)(m.partner_map, 8) == [3, 0, 3, 2]

    def test_empty_matching(self):
        assert _counter(ALL_SMALL_INVS)((0,), 0) == [0] * len(ALL_SMALL_INVS)
        assert _counter([])((0,), 0) == []

    def test_one_counter_reused_over_every_size(self):
        # counts must not leak from one call into the next, nor the size
        # of one matching into the next one's size-1 counts
        count = _counter(ALL_SMALL_INVS)
        for n in (5, 0, 3, 4, 1, 2):
            for m in enumerate_matchings(n):
                assert count(m.partner_map, 2 * n) == counts_by_definition(m, ALL_SMALL_PATTERNS), m

    def test_census_equals_reference_tally(self):
        pats = [P(name) for name in DEFAULT_PATTERNS]
        for n in range(0, 7):
            tally = {}
            for pt in recursive_partner_tuples(n):
                m = Matching(pt)
                key = tuple(count_occurrences(m, pat) for pat in pats)
                tally[key] = tally.get(key, 0) + 1
            assert _census(n, pats, allow_large=False) == tally, n


# every pattern of size 5 and a fixed sample of size 6: windows whose check
# runs past the third point
LONG_PATTERNS = [EndheredPattern(perm) for perm in permutations(range(1, 6))] + random.Random(
    6
).sample([EndheredPattern(perm) for perm in permutations(range(1, 7))], 60)
LONG_INVS = [pat.inverse for pat in LONG_PATTERNS]


class TestLongPatterns:
    def test_each_planted_alone(self):
        for pat in LONG_PATTERNS:
            m = as_matching(pat)
            assert find_occurrences(m, pat) == [Occurrence(1, pat.size + 1)]
            assert _counter(LONG_INVS)(m.partner_map, 2 * m.size) == counts_by_definition(
                m, LONG_PATTERNS
            ), pat

    @pytest.mark.parametrize("seed", range(8))
    def test_inflated_matchings(self, seed):
        # long patterns planted among small ones, so that windows agree with
        # a long pattern on a prefix and then break
        rng = random.Random(seed)
        base = random_matching(10, seed)
        pool = LONG_PATTERNS + ALL_SMALL_PATTERNS
        m = inflate(base, [rng.choice(pool) for _ in range(base.size)])
        for pat in LONG_PATTERNS:
            assert find_occurrences(m, pat) == occurrences_by_definition(m, pat), (m, pat)
        assert _counter(LONG_INVS)(m.partner_map, 2 * m.size) == counts_by_definition(
            m, LONG_PATTERNS
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.data())
    def test_mixed_sizes_sharing_a_first_difference(self, seed, data):
        # every pattern whose first two partners are adjacent and descending:
        # one dict entry holds patterns of sizes 2 to 6, stems hit it often
        pats = [
            pat
            for pat in ALL_SMALL_PATTERNS + LONG_PATTERNS
            if pat.size > 1 and pat.inverse[1] - pat.inverse[0] == -1
        ]
        assert {pat.size for pat in pats} == {2, 3, 4, 5, 6}
        base = random_matching(data.draw(st.integers(min_value=1, max_value=10)), seed)
        planted = data.draw(
            st.lists(st.sampled_from(pats + STEMS), min_size=base.size, max_size=base.size)
        )
        m = inflate(base, planted)
        assert _counter([pat.inverse for pat in pats])(
            m.partner_map, 2 * m.size
        ) == counts_by_definition(m, pats)


class TestPlantedOccurrences:
    @pytest.mark.parametrize("name", ["12", "21", "123", "321", "132", "213", "231", "312"])
    def test_detects_planted(self, name):
        pat = P(name)
        planted = as_matching(pat)
        for n in range(pat.size, 6):
            for m in enumerate_matchings(n - pat.size):
                # shift the host to the right of the planted pattern
                shift = 2 * pat.size
                arcs = [(a.left, a.right) for a in planted.arcs()]
                arcs += [(a.left + shift, a.right + shift) for a in m.arcs()]
                host = from_arcs(arcs, n)
                assert count_occurrences(host, pat) >= 1


class TestBruteForce:
    def test_table1_n3(self):
        assert distribution_bruteforce(3, P("21")) == {0: 10, 1: 4, 2: 1}

    def test_table2_n4(self):
        assert distribution_bruteforce(4, P("321")) == {0: 100, 1: 4, 2: 1}

    def test_table3_n4(self):
        assert distribution_bruteforce(4, P("132")) == {0: 99, 1: 6}

    def test_totals(self):
        from endhered import double_factorial

        for n in range(1, 6):
            for pat in (P("21"), P("132")):
                assert sum(distribution_bruteforce(n, pat).values()) == double_factorial(
                    2 * n - 1
                )

    def test_guard(self):
        with pytest.raises(PatternError, match="guard"):
            distribution_bruteforce(11, P("21"))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_census_matches_per_matching_tallies(self, n):
        pats = [P(name) for name in DEFAULT_PATTERNS]
        tallies = [{} for _ in pats]
        for m in enumerate_matchings(n):
            for pat, tally in zip(pats, tallies):
                k = count_occurrences(m, pat)
                tally[k] = tally.get(k, 0) + 1
        assert distributions_bruteforce(n, pats) == tallies
        assert [distribution_bruteforce(n, pat) for pat in pats] == tallies


class TestJointDistribution:
    def test_symmetric_21_12_n4(self):
        joint = joint_distribution_bruteforce(4, P("21"), P("12"))
        for (k, m), v in joint.items():
            assert joint.get((m, k), 0) == v

    def test_single_arc(self):
        assert joint_distribution_bruteforce(1, P("21"), P("12")) == {(0, 0): 1}

    def test_diagonal_self_join(self):
        joint = joint_distribution_bruteforce(3, P("21"), P("21"))
        assert all(k == m for k, m in joint)
        assert {k: v for (k, _), v in joint.items()} == distribution_bruteforce(3, P("21"))

    @pytest.mark.parametrize("pair", [("132", "312"), ("213", "231"), ("321", "123")])
    def test_twist_equidistribution(self, pair):
        # patterns identical under a twist have a symmetric joint distribution
        pi, tau = P(pair[0]), P(pair[1])
        assert tau in (pi.reverse(), pi.complement())
        for n in range(1, 6):
            joint = joint_distribution_bruteforce(n, pi, tau)
            for (k, m), v in joint.items():
                assert joint.get((m, k), 0) == v


class TestWilfClasses:
    def test_size_2(self):
        classes = wilf_classes(2, 6)
        assert [sorted(str(p) for p in cls) for cls in classes] == [["12", "21"]]

    def test_size_3(self):
        classes = wilf_classes(3, 6)
        as_sets = [set(str(p) for p in cls) for cls in classes]
        assert {"123", "321"} in as_sets
        assert {"132", "213", "231", "312"} in as_sets
        assert len(classes) == 2

    def test_size_1(self):
        classes = wilf_classes(1, 4)
        assert [set(str(p) for p in cls) for cls in classes] == [{"1"}]

    @pytest.mark.parametrize("p, max_n", [(4, 6), (5, 5)])
    def test_matches_bruteforce_grouping(self, p, max_n):
        pats = [EndheredPattern(perm) for perm in permutations(range(1, p + 1))]
        dists = [distributions_bruteforce(n, pats) for n in range(1, max_n + 1)]
        groups = {}
        for i, pat in enumerate(pats):
            key = tuple(tuple(sorted(dist[i].items())) for dist in dists)
            groups.setdefault(key, []).append(pat)
        assert wilf_classes(p, max_n) == list(groups.values())

    def test_runs_no_enumeration(self, monkeypatch):
        from endhered import patterns

        def refuse(n):
            raise AssertionError("wilf_classes enumerated matchings")

        monkeypatch.setattr(patterns, "_enumerate_partner_tuples", refuse)
        assert len(wilf_classes(6, 8)) > 1

    def test_size_zero_rejected(self):
        with pytest.raises(PatternError):
            wilf_classes(0, 3)


class TestMonteCarlo:
    def test_trivial_size_one(self):
        assert monte_carlo_distribution(1, P("21"), 500, seed=3) == {0: 1.0}

    def test_matches_exact_n4(self):
        # Table 1, n = 4 column over 105 matchings
        exact = {0: 68 / 105, 1: 30 / 105, 2: 6 / 105, 3: 1 / 105}
        freqs = monte_carlo_distribution(4, P("21"), 100_000, seed=11)
        assert abs(sum(freqs.values()) - 1.0) < 1e-9
        for k, p in exact.items():
            assert abs(freqs.get(k, 0.0) - p) < 0.01

    def test_deterministic(self):
        a = monte_carlo_distribution(10, P("12"), 2000, seed=5)
        b = monte_carlo_distribution(10, P("12"), 2000, seed=5)
        assert a == b

    def test_needs_samples(self):
        with pytest.raises(PatternError):
            monte_carlo_distribution(3, P("21"), 0, seed=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=12))
def test_twists_preserve_size2_total(seed, n):
    # a twist exchanges occurrences of a pattern and its twist image
    m = random_matching(n, seed)
    k21, k12 = count_occurrences(m, P("21")), count_occurrences(m, P("12"))
    t = right_twist(m)
    assert count_occurrences(t, P("21")) == k12
    assert count_occurrences(t, P("12")) == k21
    t = left_twist(m)
    assert count_occurrences(t, P("21")) == k12
    assert count_occurrences(t, P("12")) == k21
