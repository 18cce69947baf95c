"""Extended dot-bracket structures: parsing, serialization, validation,
conversion to matchings, and shape collapse.

Positions are 1-based.  Crossing base pairs (pseudoknots) are first-class:
each bracket type gets its own stack when parsing, and serialization assigns
bracket types First-Come-First-Served.
"""

from __future__ import annotations

import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Dict, FrozenSet, List, Tuple

from .matchings import EndheredError, Matching, from_arcs


class StructureError(EndheredError):
    """Raised for malformed dot-bracket text or impossible serializations."""


@dataclass(frozen=True)
class BracketAlphabet:
    """Ordered bracket types; index order is the FCFS preference order."""

    pairs: Tuple[Tuple[str, str], ...]
    # bracket character -> type index, built once from pairs
    openers: Dict[str, int] = field(init=False, repr=False, compare=False)
    closers: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        chars = [c for pair in self.pairs for c in pair]
        if len(set(chars)) != len(chars) or "." in chars:
            raise StructureError("bracket characters must be distinct and not '.'")
        object.__setattr__(self, "openers", {op: t for t, (op, _) in enumerate(self.pairs)})
        object.__setattr__(self, "closers", {cl: t for t, (_, cl) in enumerate(self.pairs)})

    @classmethod
    def default(cls, uppercase_opens: bool = False) -> "BracketAlphabet":
        """"()", "[]", "{}", "<>", then letter pairs; lowercase opens unless
        uppercase_opens flips the convention."""
        pairs = [("(", ")"), ("[", "]"), ("{", "}"), ("<", ">")]
        for lo, up in zip(string.ascii_lowercase, string.ascii_uppercase):
            pairs.append((up, lo) if uppercase_opens else (lo, up))
        return cls(tuple(pairs))


DEFAULT_ALPHABET = BracketAlphabet.default()


@dataclass(frozen=True)
class SecondaryStructure:
    """A set of base pairs (i, j), 1 <= i < j <= length; other positions are
    unpaired.  Monogamy is expected but verified only by the validator."""

    length: int
    pairs: FrozenSet[Tuple[int, int]]

    def __init__(self, length: int, pairs) -> None:
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "pairs", frozenset(tuple(p) for p in pairs))
        for i, j in self.pairs:
            if not 1 <= i < j <= length:
                raise StructureError(f"pair ({i}, {j}) out of range for length {length}")

    def sorted_pairs(self) -> List[Tuple[int, int]]:
        return sorted(self.pairs)


@dataclass
class ValidationReport:
    """Violations of the three secondary-structure well-formedness conditions
    (monogamy, minimum pairing distance theta, no crossings)."""

    theta: int
    monogamy_violations: List[Tuple[Tuple[int, int], Tuple[int, int]]] = field(default_factory=list)
    distance_violations: List[Tuple[int, int]] = field(default_factory=list)
    pseudoknot_violations: List[Tuple[Tuple[int, int], Tuple[int, int]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.monogamy_violations
            or self.distance_violations
            or self.pseudoknot_violations
        )


def _scan(text: str, alphabet: BracketAlphabet) -> Tuple[List[int], List[int]]:
    """One left-to-right pass over dot-bracket text, with one stack per
    bracket type, that ranks the paired positions 1..2m as it meets them.

    Returns (where, partner): where[r] is the position of rank r and
    partner[r] the rank it pairs with; index 0 holds 0 in both.  Raises the
    first unknown character or unmatched closer met, then every opener left
    unmatched, by position."""
    openers = alphabet.openers
    closers = alphabet.closers
    stacks: List[List[int]] = [[] for _ in alphabet.pairs]  # open ranks
    where = [0]
    partner = [0]
    for pos, ch in enumerate(text, start=1):
        if ch == ".":
            continue
        t = openers.get(ch)
        if t is not None:
            stacks[t].append(len(where))
            partner.append(0)  # set when its closer comes
        else:
            t = closers.get(ch)
            if t is None:
                raise StructureError(f"unknown character {ch!r} at position {pos}")
            stack = stacks[t]
            if not stack:
                raise StructureError(f"unmatched closing {ch!r} at position {pos}")
            r = stack.pop()
            partner[r] = len(where)
            partner.append(r)
        where.append(pos)
    dangling = sorted(where[r] for stack in stacks for r in stack)
    if dangling:
        raise StructureError(f"unmatched opening bracket(s) at position(s) {dangling}")
    return where, partner


def parse_dotbracket(
    text: str, alphabet: BracketAlphabet = DEFAULT_ALPHABET
) -> SecondaryStructure:
    """Parse extended dot-bracket text using one stack per bracket type."""
    where, partner = _scan(text, alphabet)
    return SecondaryStructure(
        len(text), [(where[r], where[q]) for r, q in enumerate(partner) if q > r]
    )


def matching_from_dotbracket(
    text: str, alphabet: BracketAlphabet = DEFAULT_ALPHABET
) -> Matching:
    """``to_matching(parse_dotbracket(text, alphabet))`` in one scan: the
    ranks of the paired positions are the matching's points."""
    return Matching._unchecked(tuple(_scan(text, alphabet)[1]))


def serialize_dotbracket(
    s: SecondaryStructure, alphabet: BracketAlphabet = DEFAULT_ALPHABET
) -> str:
    """Render to extended dot-bracket text.

    Pairs are processed in ascending opener position and each one takes the
    first bracket type whose already-assigned pairs it does not cross.  Each
    type keeps a stack of its pairs still open, innermost last; pair (i, j)
    crosses one of them exactly when the innermost one with an opener below
    i closes before j.  Cost O(P*T) steps for P monogamous pairs and T
    bracket types.
    """
    out = ["."] * s.length
    stacks: List[List[Tuple[int, int]]] = [[] for _ in alphabet.pairs]
    for pair in s.sorted_pairs():
        i, j = pair
        for t, stack in enumerate(stacks):
            while stack and stack[-1][1] <= i:
                stack.pop()
            # pairs sharing opener i sit on top and close before j: the new
            # pair encloses them, so it goes below them
            top = len(stack)
            while top and stack[top - 1][0] == i:
                top -= 1
            if not top or stack[top - 1][1] >= j:
                stack.insert(top, pair)
                out[i - 1], out[j - 1] = alphabet.pairs[t]
                break
        else:
            raise StructureError(
                f"bracket alphabet exhausted: pair {pair} crosses all "
                f"{len(alphabet.pairs)} types"
            )
    return "".join(out)


def validate_waterman_ponty(s: SecondaryStructure, theta: int) -> ValidationReport:
    """Report every violation of monogamy, minimum distance, and planarity.

    Both lists of pair pairs hold (a, b) with a before b in sorted_pairs()
    order, sorted by (a, b).  Shared positions come from a map of each
    position to the pairs that use it; crossings from one left-to-right
    sweep over the open pairs, kept sorted by opener: when (i, j) closes,
    the open pairs with an opener above i are exactly its later crossing
    partners.  Cost O(P log P + K log K) comparisons for P pairs and K
    violations.
    """
    if theta < 0:
        raise StructureError("theta must be nonnegative")
    pairs = s.sorted_pairs()
    report = ValidationReport(
        theta=theta, distance_violations=[(i, j) for i, j in pairs if j - i < theta]
    )
    users: Dict[int, List[int]] = {}
    for x, pair in enumerate(pairs):
        for pos in pair:
            users.setdefault(pos, []).append(x)
    shared: List[Tuple[int, int]] = []
    crossing: List[Tuple[int, int]] = []
    open_pairs: List[Tuple[int, int]] = []  # (opener, index), ascending
    after = len(pairs)  # sorts after every index at the same opener
    for pos in sorted(users):
        here = users[pos]
        shared += combinations(here, 2)
        # every pair closing here leaves before any is matched, so pairs
        # sharing a closer are not taken for crossings
        closing = [x for x in here if pairs[x][1] == pos]
        for x in closing:
            del open_pairs[bisect_left(open_pairs, (pairs[x][0], x))]
        for x in closing:
            start = bisect_right(open_pairs, (pairs[x][0], after))
            crossing += [(x, y) for _, y in open_pairs[start:]]
        open_pairs += [(pos, x) for x in here if pairs[x][0] == pos]
    report.monogamy_violations = [(pairs[a], pairs[b]) for a, b in sorted(shared)]
    report.pseudoknot_violations = [(pairs[a], pairs[b]) for a, b in sorted(crossing)]
    return report


def _reindexed(arcs: Collection[Tuple[int, int]]) -> Matching:
    """The matching that ``arcs`` form once their points are ranked 1..2m."""
    points = sorted(p for arc in arcs for p in arc)
    rank = {p: r for r, p in enumerate(points, start=1)}
    if len(rank) < len(points):
        # a point shared by two arcs: from_arcs raises the MatchingError
        return from_arcs([(rank[i], rank[j]) for i, j in arcs], len(arcs))
    partner = [0] * (len(points) + 1)
    for i, j in arcs:
        partner[rank[i]] = rank[j]
        partner[rank[j]] = rank[i]
    return Matching._unchecked(tuple(partner))


def to_matching(s: SecondaryStructure) -> Matching:
    """Drop unpaired positions and reindex the paired ones to 1..2m."""
    return _reindexed(s.pairs)


def collapse_shape(m: Matching) -> Matching:
    """Reduce a matching to its shape: drop every arc (i, j) with (i+1, j-1)
    also present, and reindex.

    One round reaches the fixed point, which is exactly the condition that
    no occurrence of pattern 21 remains.  A gap the round opens between two
    kept arcs holds only points of a ladder (i, j), (i+1, j-1), ... of
    dropped arcs; that ladder ends at the inner kept arc, so the outer one
    would have been dropped too.
    """
    pt = m.partner_map
    # (i+1, j-1) is an arc when pt[i+1] == j-1, unless j == i+1
    kept = [(i, j) for i, j in enumerate(pt) if j > i and (j == i + 1 or pt[i + 1] != j - 1)]
    return m if len(kept) == m.size else _reindexed(kept)


def structure_to_shape_text(
    text: str, alphabet: BracketAlphabet = DEFAULT_ALPHABET
) -> str:
    """Full pipeline: dot-bracket text -> matching -> shape -> dot-bracket."""
    m = collapse_shape(matching_from_dotbracket(text, alphabet))
    pairs = [(a.left, a.right) for a in m.arcs()]
    return serialize_dotbracket(SecondaryStructure(2 * m.size, pairs), alphabet)
