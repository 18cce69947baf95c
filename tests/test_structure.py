import random
import time
from bisect import bisect_right, insort

import pytest
from hypothesis import given, settings, strategies as st

from endhered import (
    BracketAlphabet,
    EndheredPattern,
    MatchingError,
    SecondaryStructure,
    StructureError,
    collapse_shape,
    count_occurrences,
    enumerate_matchings,
    from_arcs,
    matching_from_dotbracket,
    parse_dotbracket,
    random_matching,
    serialize_dotbracket,
    structure_to_shape_text,
    to_matching,
    validate_waterman_ponty,
)
from endhered.structure import DEFAULT_ALPHABET

PAT21 = EndheredPattern.from_string("21")

SHAPE_EXAMPLE = "..(((.((..(((....))).(((.....)))))))).."


class TestAlphabet:
    def test_default_order(self):
        alpha = BracketAlphabet.default()
        assert alpha.pairs[:4] == (("(", ")"), ("[", "]"), ("{", "}"), ("<", ">"))
        assert alpha.pairs[4] == ("a", "A")

    def test_uppercase_opens_flip(self):
        alpha = BracketAlphabet.default(uppercase_opens=True)
        assert alpha.pairs[4] == ("A", "a")

    def test_rejects_duplicates_and_dot(self):
        with pytest.raises(StructureError):
            BracketAlphabet((("(", ")"), ("(", "]")))
        with pytest.raises(StructureError):
            BracketAlphabet(((".", ")"),))

    def test_equality_hash_repr_come_from_pairs_alone(self):
        pairs = (("(", ")"), ("a", "Z"))
        alpha = BracketAlphabet(pairs)
        assert alpha == BracketAlphabet(pairs)
        assert alpha != BracketAlphabet(pairs[::-1])
        assert hash(alpha) == hash((pairs,))
        assert repr(alpha) == "BracketAlphabet(pairs=(('(', ')'), ('a', 'Z')))"
        assert alpha.openers == {"(": 0, "a": 1} and alpha.closers == {")": 0, "Z": 1}


class TestParse:
    def test_single_pair(self):
        s = parse_dotbracket("()")
        assert s.length == 2 and s.pairs == {(1, 2)}

    def test_crossing(self):
        assert parse_dotbracket("([)]").pairs == {(1, 3), (2, 4)}

    def test_with_dots(self):
        s = parse_dotbracket("((..))")
        assert s.length == 6 and s.pairs == {(1, 6), (2, 5)}

    def test_unmatched_closer(self):
        with pytest.raises(StructureError, match="position 3"):
            parse_dotbracket("()]")

    def test_unmatched_opener(self):
        with pytest.raises(StructureError, match=r"position\(s\) \[1\]"):
            parse_dotbracket("((.)")

    def test_unmatched_openers_named_by_position(self):
        for parse in (parse_dotbracket, matching_from_dotbracket):
            with pytest.raises(StructureError, match=r"position\(s\) \[3, 6\]$"):
                parse("..[(.[.)")

    def test_unknown_character(self):
        with pytest.raises(StructureError, match="position 2"):
            parse_dotbracket("(?)")

    def test_letter_brackets(self):
        assert parse_dotbracket("a.A").pairs == {(1, 3)}

    def test_same_type_properly_nested(self):
        # single bracket type parses to a non-crossing pair set
        s = parse_dotbracket("(()(()))")
        pairs = sorted(s.pairs)
        for i, a in enumerate(pairs):
            for b in pairs[i + 1 :]:
                assert not (a[0] < b[0] < a[1] < b[1])


def reference_parse(text, alphabet=DEFAULT_ALPHABET):
    """Reference parser: a stack per bracket type in a dict keyed by type,
    pairs collected by position, errors raised as parse_dotbracket raises
    them."""
    openers = {op: t for t, (op, _) in enumerate(alphabet.pairs)}
    closers = {cl: t for t, (_, cl) in enumerate(alphabet.pairs)}
    stacks = {}
    pairs = []
    for pos, ch in enumerate(text, start=1):
        if ch == ".":
            continue
        if ch in openers:
            stacks.setdefault(openers[ch], []).append(pos)
        elif ch in closers:
            stack = stacks.get(closers[ch], [])
            if not stack:
                raise StructureError(f"unmatched closing {ch!r} at position {pos}")
            pairs.append((stack.pop(), pos))
        else:
            raise StructureError(f"unknown character {ch!r} at position {pos}")
    dangling = sorted(pos for stack in stacks.values() for pos in stack)
    if dangling:
        raise StructureError(f"unmatched opening bracket(s) at position(s) {dangling}")
    return SecondaryStructure(len(text), pairs)


# letter pairs both ways round, so that each alphabet below reads some of
# them as closers first; "?" and "." are never brackets
TEXT_PAIRS = [("(", ")"), ("[", "]"), ("{", "}"), ("<", ">"), ("a", "A"), ("B", "b"), ("a", "Z")]
TEXT_CHARS = ".()[]{}<>aAbBzZ?"
ALPHABETS = {
    "default": DEFAULT_ALPHABET,
    "uppercase_opens": BracketAlphabet.default(uppercase_opens=True),
    "two_pairs": BracketAlphabet((("(", ")"), ("a", "Z"))),
}


@st.composite
def bracket_texts(draw):
    """Stems of 1-3 pairs of one bracket pair each, from a palette of 1-3
    pairs, crossing freely, among dots; then, in half the texts, up to three
    characters deleted or inserted, so that unbalanced runs and unknown
    characters occur."""
    m = draw(st.integers(min_value=0, max_value=10))
    order = draw(st.permutations(list(range(m)) * 2))
    palette = draw(st.lists(st.sampled_from(TEXT_PAIRS), min_size=1, max_size=3, unique=True))
    brackets = [draw(st.sampled_from(palette)) for _ in range(m)]
    stems = [draw(st.integers(min_value=1, max_value=3)) for _ in range(m)]
    chars, opened = [], set()
    for arc in order:
        chars += brackets[arc][1 if arc in opened else 0] * stems[arc]
        opened.add(arc)
        chars += "." * draw(st.integers(min_value=0, max_value=2))
    for _ in range(draw(st.integers(min_value=1, max_value=3)) if draw(st.booleans()) else 0):
        pos = draw(st.integers(min_value=0, max_value=len(chars)))
        if pos < len(chars) and draw(st.booleans()):
            del chars[pos]
        else:
            chars.insert(pos, draw(st.sampled_from(TEXT_CHARS)))
    return "".join(chars)


class TestScanMatchesReference:
    @pytest.mark.parametrize("name", list(ALPHABETS))
    @settings(max_examples=300, deadline=None)
    @given(text=bracket_texts())
    def test_parse_and_matching(self, name, text):
        alphabet = ALPHABETS[name]
        try:
            want = reference_parse(text, alphabet)
        except StructureError as exc:
            for parse in (parse_dotbracket, matching_from_dotbracket):
                with pytest.raises(StructureError) as got:
                    parse(text, alphabet)
                assert str(got.value) == str(exc)
        else:
            assert parse_dotbracket(text, alphabet) == want
            assert matching_from_dotbracket(text, alphabet) == to_matching(
                parse_dotbracket(text, alphabet)
            )

    @pytest.mark.parametrize(
        "text", ["", "....", "..()..", "(.[.).]", "a..(A)", SHAPE_EXAMPLE, "((((.[[[)))).]]]"]
    )
    def test_fixed_texts(self, text):
        assert parse_dotbracket(text) == reference_parse(text)
        assert matching_from_dotbracket(text) == to_matching(reference_parse(text))


class TestSerialize:
    def test_single_pair(self):
        assert serialize_dotbracket(SecondaryStructure(2, [(1, 2)])) == "()"

    def test_fcfs_crossing(self):
        assert serialize_dotbracket(SecondaryStructure(4, [(1, 3), (2, 4)])) == "([)]"

    def test_unpaired_positions(self):
        assert serialize_dotbracket(SecondaryStructure(5, [(1, 5)])) == "(...)"

    def test_alphabet_exhausted(self):
        alpha = BracketAlphabet((("(", ")"),))
        with pytest.raises(StructureError, match="exhausted"):
            serialize_dotbracket(SecondaryStructure(4, [(1, 3), (2, 4)]), alpha)

    @pytest.mark.parametrize(
        "text",
        [
            "()",
            "([)]",
            "((..))",
            SHAPE_EXAMPLE,
            "((((((.(((((.((.......((((.(.(.[..)]..).)))))).))))).))))))",
            "{{...((((((((....))))))((((...[[[...))))}}.))...]]]",
        ],
    )
    def test_round_trip(self, text):
        s = parse_dotbracket(text)
        again = parse_dotbracket(serialize_dotbracket(s))
        assert again.pairs == s.pairs and again.length == s.length

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=10))
    def test_round_trip_random_matchings(self, seed, n):
        m = random_matching(n, seed)
        pairs = [(a.left, a.right) for a in m.arcs()]
        s = SecondaryStructure(2 * n, pairs)
        assert parse_dotbracket(serialize_dotbracket(s)).pairs == s.pairs


class TestValidate:
    def test_all_clear(self):
        report = validate_waterman_ponty(SecondaryStructure(5, [(1, 5)]), theta=3)
        assert report.ok

    def test_distance_violation(self):
        report = validate_waterman_ponty(SecondaryStructure(3, [(1, 3)]), theta=3)
        assert report.distance_violations == [(1, 3)]
        assert not report.ok

    def test_pseudoknot_violation(self):
        report = validate_waterman_ponty(SecondaryStructure(4, [(1, 3), (2, 4)]), theta=0)
        assert report.pseudoknot_violations == [((1, 3), (2, 4))]

    def test_monogamy_violation(self):
        s = SecondaryStructure(4, [(1, 3), (3, 4)])
        report = validate_waterman_ponty(s, theta=0)
        assert report.monogamy_violations == [((1, 3), (3, 4))]

    def test_negative_theta(self):
        with pytest.raises(StructureError):
            validate_waterman_ponty(SecondaryStructure(2, [(1, 2)]), theta=-1)


def _crosses(a, b):
    (i, j), (k, l) = sorted((a, b))
    return i < k < j < l


def reference_validate(s, theta):
    """The definition, pair by pair: (monogamy, distance, pseudoknot) lists."""
    pairs = s.sorted_pairs()
    monogamy, knots = [], []
    for idx, a in enumerate(pairs):
        for b in pairs[idx + 1 :]:
            if set(a) & set(b):
                monogamy.append((a, b))
            elif _crosses(a, b):
                knots.append((a, b))
    return monogamy, [(i, j) for i, j in pairs if j - i < theta], knots


def reference_serialize(s, alphabet):
    """First fit against every pair already given each type; the text, or
    the exhaustion message."""
    out = ["."] * s.length
    assigned = [[] for _ in alphabet.pairs]
    for pair in s.sorted_pairs():
        for t, given_t in enumerate(assigned):
            if not any(_crosses(pair, other) for other in given_t):
                given_t.append(pair)
                out[pair[0] - 1], out[pair[1] - 1] = alphabet.pairs[t]
                break
        else:
            return (
                f"bracket alphabet exhausted: pair {pair} crosses all "
                f"{len(alphabet.pairs)} types"
            )
    return "".join(out)


@st.composite
def pair_sets(draw):
    """Arbitrary pair sets (shared endpoints included) or monogamous ones,
    on up to 60 positions."""
    length = draw(st.integers(min_value=2, max_value=60))
    if draw(st.booleans()):
        pos = st.integers(min_value=1, max_value=length)
        raw = draw(st.lists(st.tuples(pos, pos), max_size=length))
    else:
        order = draw(st.permutations(range(1, length + 1)))
        k = draw(st.integers(min_value=0, max_value=length // 2))
        raw = [(order[2 * x], order[2 * x + 1]) for x in range(k)]
    return SecondaryStructure(length, {(min(a, b), max(a, b)) for a, b in raw if a != b})


class TestMatchesDefinition:
    @settings(max_examples=400, deadline=None)
    @given(pair_sets(), st.integers(min_value=0, max_value=3))
    def test_validate(self, s, theta):
        report = validate_waterman_ponty(s, theta)
        got = (
            report.monogamy_violations,
            report.distance_violations,
            report.pseudoknot_violations,
        )
        assert got == reference_validate(s, theta)

    @settings(max_examples=400, deadline=None)
    @given(pair_sets(), st.integers(min_value=1, max_value=4))
    def test_serialize(self, s, types):
        alphabet = BracketAlphabet(DEFAULT_ALPHABET.pairs[:types])
        try:
            got = serialize_dotbracket(s, alphabet)
        except StructureError as exc:
            got = str(exc)
        assert got == reference_serialize(s, alphabet)


def _pseudoknotted_text(rng, blocks):
    """H-type pseudoknots with random stems, loops and an inner hairpin,
    under two long helices of two more types that cross each other."""
    parts = []
    for _ in range(blocks):
        a, c = rng.randint(4, 9), rng.randint(3, 7)
        hairpin = "(" * 3 + "." * rng.randint(2, 5) + ")" * 3
        parts.append(
            "(" * a + "." * rng.randint(1, 4) + "[" * c + "." * rng.randint(0, 3)
            + hairpin + ")" * a + "." * rng.randint(1, 4) + "]" * c
            + "." * rng.randint(0, 3)
        )
    q = blocks // 4
    return (
        "{" * 6 + "".join(parts[:q]) + "<" * 6 + "".join(parts[q : 2 * q])
        + "}" * 6 + "".join(parts[2 * q : 3 * q]) + ">" * 6 + "".join(parts[3 * q :])
    )


def _count_crossings(pairs):
    """Crossings of a monogamous pair set: for each (i, j), the pairs opening
    after i that close after j, less those opening after j."""
    openers = sorted(i for i, _ in pairs)
    closers = []  # closers of the pairs opening after the current one
    count = 0
    for i, j in sorted(pairs, reverse=True):
        opening_after_j = len(openers) - bisect_right(openers, j)
        count += len(closers) - bisect_right(closers, j) - opening_after_j
        insort(closers, j)
    return count


def test_rrna_scale_is_fast():
    s = parse_dotbracket(_pseudoknotted_text(random.Random(3000), 205))
    assert len(s.pairs) > 2900
    start = time.perf_counter()
    report = validate_waterman_ponty(s, theta=3)
    text = serialize_dotbracket(s)
    elapsed = time.perf_counter() - start
    assert len(report.pseudoknot_violations) == _count_crossings(s.pairs)
    assert parse_dotbracket(text) == s
    assert elapsed < 1.0


class TestToMatching:
    def test_hairpin_with_dots(self):
        m = to_matching(parse_dotbracket("..().."))
        assert m == from_arcs([(1, 2)], 1)

    def test_interleaved(self):
        m = to_matching(parse_dotbracket("(.[.).]"))
        assert m == from_arcs([(1, 3), (2, 4)], 2)

    def test_no_pairs(self):
        assert to_matching(parse_dotbracket("....")).size == 0

    def test_preserves_crossings(self):
        text = "{{...((((((((....))))))((((...[[[...))))}}.))...]]]"
        s = parse_dotbracket(text)
        m = to_matching(s)
        paired = sorted(p for pair in s.pairs for p in pair)
        rank = {p: r for r, p in enumerate(paired, start=1)}
        for a in s.pairs:
            for b in s.pairs:
                crossed = a[0] < b[0] < a[1] < b[1]
                image_crossed = rank[a[0]] < rank[b[0]] < rank[a[1]] < rank[b[1]]
                assert crossed == image_crossed


def _collapse_to_fixpoint(m):
    """Rounds of dropping every arc (i, j) with (i+1, j-1) present, then
    reindexing, until a round drops nothing."""
    while True:
        arcs = [(a.left, a.right) for a in m.arcs()]
        present = set(arcs)
        kept = [(i, j) for i, j in arcs if (i + 1, j - 1) not in present]
        if len(kept) == len(arcs):
            return m
        points = sorted(p for arc in kept for p in arc)
        rank = {p: r for r, p in enumerate(points, start=1)}
        m = from_arcs([(rank[i], rank[j]) for i, j in kept], len(kept))


@st.composite
def ladder_matchings(draw):
    """A random matching with each arc widened into a ladder of 1-4 nested
    copies, so that removable arcs come in long runs."""
    base = random_matching(draw(st.integers(min_value=0, max_value=12)),
                           draw(st.integers(min_value=0, max_value=2**32)))
    depth = {a.left: draw(st.integers(min_value=1, max_value=4)) for a in base.arcs()}
    opened, arcs, pos = {}, [], 0
    for point, left in sorted((p, a.left) for a in base.arcs() for p in (a.left, a.right)):
        block = range(pos + 1, pos + depth[left] + 1)
        pos += depth[left]
        if point == left:
            opened[left] = block
        else:
            arcs += zip(opened[left], reversed(block))
    return from_arcs(arcs, len(arcs))


class TestCollapse:
    def test_paper_shape_example(self):
        assert structure_to_shape_text(SHAPE_EXAMPLE) == "(()())"

    def test_triple_nest(self):
        m = from_arcs([(1, 6), (2, 5), (3, 4)], 3)
        assert collapse_shape(m) == from_arcs([(1, 2)], 1)

    def test_crossing_unchanged(self):
        m = from_arcs([(1, 3), (2, 4)], 2)
        assert collapse_shape(m) == m

    def test_idempotent_exhaustive(self):
        for n in range(0, 6):
            for m in enumerate_matchings(n):
                shape = collapse_shape(m)
                assert collapse_shape(shape) == shape

    def test_zero_21_exhaustive(self):
        for n in range(0, 6):
            for m in enumerate_matchings(n):
                assert count_occurrences(collapse_shape(m), PAT21) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_zero_21_random(self, seed):
        m = random_matching(25, seed)
        assert count_occurrences(collapse_shape(m), PAT21) == 0

    @settings(max_examples=60, deadline=None)
    @given(ladder_matchings())
    def test_one_round_matches_fixpoint_loop_on_ladders(self, m):
        assert collapse_shape(m) == _collapse_to_fixpoint(m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=12))
    def test_one_round_matches_fixpoint_loop_on_pseudoknots(self, seed, blocks):
        m = to_matching(parse_dotbracket(_pseudoknotted_text(random.Random(seed), blocks)))
        assert collapse_shape(m) == _collapse_to_fixpoint(m)


def _reindexed_by_from_arcs(arcs):
    """Rank the points 1..2m and build the matching with from_arcs."""
    points = sorted(p for arc in arcs for p in arc)
    rank = {p: r for r, p in enumerate(points, start=1)}
    return from_arcs([(rank[i], rank[j]) for i, j in arcs], len(arcs))


def _collapse_by_from_arcs(m):
    """One round of dropping every arc (i, j) with (i+1, j-1) present."""
    arcs = [(a.left, a.right) for a in m.arcs()]
    present = set(arcs)
    kept = [(i, j) for i, j in arcs if (i + 1, j - 1) not in present]
    return m if len(kept) == len(arcs) else _reindexed_by_from_arcs(kept)


class TestMatchesFromArcs:
    @settings(max_examples=150, deadline=None)
    @given(pair_sets())
    def test_to_matching(self, s):
        try:
            want = _reindexed_by_from_arcs(s.pairs)
        except MatchingError as exc:
            with pytest.raises(MatchingError) as got:
                to_matching(s)
            assert str(got.value) == str(exc)
        else:
            assert to_matching(s) == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=12))
    def test_to_matching_pseudoknots(self, seed, blocks):
        s = parse_dotbracket(_pseudoknotted_text(random.Random(seed), blocks))
        assert to_matching(s) == _reindexed_by_from_arcs(s.pairs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32))
    def test_collapse_random(self, n, seed):
        m = random_matching(n, seed)
        assert collapse_shape(m) == _collapse_by_from_arcs(m)

    @settings(max_examples=60, deadline=None)
    @given(ladder_matchings())
    def test_collapse_ladders(self, m):
        assert collapse_shape(m) == _collapse_by_from_arcs(m)

    def test_collapse_exhaustive(self):
        for n in range(0, 6):
            for m in enumerate_matchings(n):
                assert collapse_shape(m) == _collapse_by_from_arcs(m)

    def test_shared_position_message(self):
        s = SecondaryStructure(6, [(1, 4), (1, 5), (2, 6)])
        with pytest.raises(MatchingError) as want:
            _reindexed_by_from_arcs(s.pairs)
        with pytest.raises(MatchingError) as got:
            to_matching(s)
        assert str(got.value) == str(want.value) == "duplicate point 2"


def test_structure_rejects_bad_pairs():
    with pytest.raises(StructureError):
        SecondaryStructure(4, [(0, 3)])
    with pytest.raises(StructureError):
        SecondaryStructure(4, [(3, 3)])
    with pytest.raises(StructureError):
        SecondaryStructure(4, [(2, 5)])
