"""Perfect matchings on 2n points: construction, enumeration, sampling, twists.

A matching of size n pairs up the points 1..2n; it is stored as its partner
map, i.e. a fixed-point-free involution.  All indices are 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple


class EndheredError(ValueError):
    """Base of every domain error the package raises: bad input or a
    request outside a routine's domain, as opposed to a bug."""


class MatchingError(EndheredError):
    """Raised when arc data does not describe a valid matching."""


@dataclass(frozen=True, order=True)
class Arc:
    """A single arc (left, right) with left < right."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if not self.left < self.right:
            raise MatchingError(f"arc requires left < right, got ({self.left}, {self.right})")


class Matching:
    """A perfect matching of size n, i.e. n arcs over points 1..2n.

    Immutable; the partner map is exposed via ``partner(i)``.
    """

    __slots__ = ("_partner", "size")

    def __init__(self, partner: Sequence[int]):
        # partner is 1-based with a 0 sentinel at index 0
        self._partner = tuple(partner)
        if len(self._partner) % 2 != 1:
            raise MatchingError("partner map must cover an even number of points")
        self.size = (len(self._partner) - 1) // 2
        self._check()

    def _check(self) -> None:
        n2 = 2 * self.size
        pt = self._partner
        if pt[0] != 0:
            raise MatchingError(f"partner map must start with the 0 sentinel, got {pt[0]}")
        for i in range(1, n2 + 1):
            j = pt[i]
            if not 1 <= j <= n2:
                raise MatchingError(f"partner({i}) = {j} out of range 1..{n2}")
            if j == i:
                raise MatchingError(f"point {i} is paired with itself")
            if pt[j] != i:
                raise MatchingError(f"partner map is not an involution at point {i}")

    @classmethod
    def _unchecked(cls, partner: Tuple[int, ...]) -> "Matching":
        m = object.__new__(cls)
        object.__setattr__(m, "_partner", partner)
        object.__setattr__(m, "size", (len(partner) - 1) // 2)
        return m

    def partner(self, i: int) -> int:
        if not 1 <= i <= 2 * self.size:
            raise MatchingError(f"point {i} out of range 1..{2 * self.size}")
        return self._partner[i]

    @property
    def partner_map(self) -> Tuple[int, ...]:
        """Partner tuple with a 0 sentinel at index 0."""
        return self._partner

    def arcs(self) -> Tuple[Arc, ...]:
        return tuple(
            Arc(i, self._partner[i])
            for i in range(1, 2 * self.size + 1)
            if self._partner[i] > i
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matching) and self._partner == other._partner

    def __hash__(self) -> int:
        return hash(self._partner)

    def __repr__(self) -> str:
        return f"Matching({serialize_matching(self)!r})"


def from_arcs(arcs, n: int) -> Matching:
    """Build a matching of size n from its arc set.

    Every point 1..2n must be covered exactly once.
    """
    if n < 0:
        raise MatchingError("size must be nonnegative")
    partner = [0] * (2 * n + 1)
    for arc in arcs:
        if not isinstance(arc, Arc):
            arc = Arc(*arc)
        for p in (arc.left, arc.right):
            if not 1 <= p <= 2 * n:
                raise MatchingError(f"point {p} out of range 1..{2 * n}")
            if partner[p] != 0:
                raise MatchingError(f"duplicate point {p}")
        partner[arc.left] = arc.right
        partner[arc.right] = arc.left
    for p in range(1, 2 * n + 1):
        if partner[p] == 0:
            raise MatchingError(f"point {p} is not covered by any arc")
    return Matching._unchecked(tuple(partner))


def to_permutation(m: Matching) -> Tuple[int, ...]:
    """One-line notation of the matching seen as a fixed-point-free involution."""
    return m.partner_map[1:]


def from_permutation(perm: Sequence[int]) -> Matching:
    """Inverse of :func:`to_permutation`."""
    return Matching((0, *perm))


def serialize_matching(m: Matching) -> str:
    """Render as space-separated "i-j" arcs, e.g. "1-3 2-6 4-5 7-8"."""
    return " ".join(f"{a.left}-{a.right}" for a in m.arcs())


def parse_matching(text: str) -> Matching:
    """Parse the "i-j i-j ..." serialization produced by serialize_matching."""
    arcs = []
    for token in text.split():
        left, sep, right = token.partition("-")
        if not sep:
            raise MatchingError(f"bad arc token {token!r}")
        try:
            arcs.append(Arc(int(left), int(right)))
        except ValueError as exc:
            raise MatchingError(f"bad arc token {token!r}") from exc
    return from_arcs(arcs, len(arcs))


def enumerate_matchings(n: int) -> Iterator[Matching]:
    """Yield all (2n-1)!! matchings of size n in a fixed deterministic order.

    Matchings are produced by the recursive construction that prepends a new
    leftmost point and inserts its partner at one of the 2n-1 possible
    positions; the stream is grouped by that insertion position, ascending.
    """
    if n < 0:
        raise MatchingError("size must be nonnegative")
    for pt in _enumerate_partner_tuples(n):
        yield Matching._unchecked(pt)


def _enumerate_partner_tuples(n: int) -> Iterator[Tuple[int, ...]]:
    """Partner tuples in enumerate_matchings order.  Level m is built from
    the list of level m-1; only level n-1 is held, and level n is streamed."""
    if n == 0:
        yield (0,)
        return
    level = [(0,)]
    for m in range(1, n):
        level = list(_next_level(level, m))
    yield from _next_level(level, n)


def _next_level(level: Sequence[Tuple[int, ...]], m: int) -> Iterator[Tuple[int, ...]]:
    for t in range(1, 2 * m):
        # new arc (1, t+1); every old label q, of a point or of its partner,
        # becomes q+1 if q < t, else q+2
        get = (0, *range(2, t + 1), *range(t + 2, 2 * m + 1)).__getitem__
        for sub in level:
            yield (0, t + 1, *map(get, sub[1:t]), 1, *map(get, sub[t:]))


def random_matching(n: int, seed: int) -> Matching:
    """Uniform random matching of size n, reproducible for a fixed seed.

    Repeatedly pairs the smallest unpaired point with a uniformly chosen
    remaining point, which yields the uniform distribution over all
    (2n-1)!! matchings.
    """
    rng = random.Random(seed)
    return _random_matching(n, rng)


def _random_matching(n: int, rng: random.Random) -> Matching:
    if n < 0:
        raise MatchingError("size must be nonnegative")
    getrandbits = rng.getrandbits
    # unpaired points in descending order, so the smallest one pops off the end
    avail = list(range(2 * n, 0, -1))
    partner = [0] * (2 * n + 1)
    for width in range(2 * n - 1, 0, -2):
        # r = rng.randrange(width) inlined, with its rejection rule on
        # getrandbits, so the draws and the stream for a seed are unchanged
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        a = avail.pop()
        # the (r+1)-th smallest remaining point, i.e. the r-th after a
        b = avail.pop(~r)
        partner[a] = b
        partner[b] = a
    return Matching._unchecked(tuple(partner))


def _twist(m: Matching, left_runs: bool) -> Matching:
    """Reverse every maximal run of consecutive left (or right) endpoints."""
    n2 = 2 * m.size
    old = m.partner_map
    is_side = [False] * (n2 + 2)
    for i in range(1, n2 + 1):
        if (old[i] > i) == left_runs:
            is_side[i] = True
    # relocation[i] = new position of the endpoint currently at i
    relocation = list(range(n2 + 1))
    i = 1
    while i <= n2:
        if is_side[i]:
            j = i
            while is_side[j + 1]:
                j += 1
            for t in range(j - i + 1):
                relocation[i + t] = j - t
            i = j + 1
        else:
            i += 1
    partner = [0] * (n2 + 1)
    for i in range(1, n2 + 1):
        a, b = relocation[i], relocation[old[i]]
        partner[a] = b
        partner[b] = a
    return Matching._unchecked(tuple(partner))


def left_twist(m: Matching) -> Matching:
    """Reverse every maximal run of consecutive starting points."""
    return _twist(m, left_runs=True)


def right_twist(m: Matching) -> Matching:
    """Reverse every maximal run of consecutive ending points."""
    return _twist(m, left_runs=False)
