"""Endhered pattern detection and brute-force distribution machinery.

An endhered pattern of size p is a permutational matching, identified with
the permutation formed by its ending points.  An occurrence in a matching
consists of p consecutive starting points whose partners form a consecutive
block arranged according to the pattern.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .matchings import (
    EndheredError,
    Matching,
    from_arcs,
    _enumerate_partner_tuples,
    _random_matching,
)


class PatternError(EndheredError):
    """Raised for invalid patterns or guarded brute-force sizes."""


# (2*8-1)!! is ~2.0e6 matchings: one pattern takes ~9 s at n = 8 on a 2-core
# x86-64 VM (Python 3.11), the eight default patterns ~11 s, and the census
# holds the 135 135 matchings of size 7 (~24 MB); each further n multiplies
# the time by 2n-1 and the held level by about 2n (n = 9: ~3 min, ~0.4 GB);
# anything larger needs an explicit override
BRUTEFORCE_MAX_N = 8


@dataclass(frozen=True)
class EndheredPattern:
    """A pattern given by a permutation of {1..p} in one-line notation."""

    perm: Tuple[int, ...]

    def __init__(self, perm: Iterable[int]):
        object.__setattr__(self, "perm", tuple(perm))
        p = len(self.perm)
        if p < 1 or sorted(self.perm) != list(range(1, p + 1)):
            raise PatternError(f"not a permutation of 1..{p}: {self.perm}")

    @classmethod
    def from_string(cls, text: str) -> "EndheredPattern":
        """Parse "21" or comma form "10,1,2,..."."""
        if "," in text:
            try:
                perm = [int(tok) for tok in text.split(",")]
            except ValueError:
                raise PatternError(f"bad pattern string {text!r}") from None
            return cls(perm)
        if not text.isdigit():
            raise PatternError(f"bad pattern string {text!r}")
        return cls(int(ch) for ch in text)

    @property
    def size(self) -> int:
        return len(self.perm)

    @property
    def inverse(self) -> Tuple[int, ...]:
        inv = [0] * self.size
        for pos, val in enumerate(self.perm, start=1):
            inv[val - 1] = pos
        return tuple(inv)

    def reverse(self) -> "EndheredPattern":
        """Image under the right endhered twist."""
        return EndheredPattern(reversed(self.perm))

    def complement(self) -> "EndheredPattern":
        """Image under the left endhered twist."""
        p = self.size
        return EndheredPattern(p + 1 - v for v in self.perm)

    def __str__(self) -> str:
        if self.size < 10:
            return "".join(str(v) for v in self.perm)
        return ",".join(str(v) for v in self.perm)


@dataclass(frozen=True)
class Occurrence:
    """Position of a pattern occurrence: its first starting and ending point."""

    start: int
    end: int


def as_matching(pat: EndheredPattern) -> Matching:
    """The size-p matching whose unique occurrence of ``pat`` is at (1, p+1)."""
    p = pat.size
    inv = pat.inverse
    return from_arcs([(s, inv[s - 1] + p) for s in range(1, p + 1)], p)


def find_occurrences(m: Matching, pat: EndheredPattern) -> List[Occurrence]:
    """All occurrences of ``pat`` in ``m``, in ascending start order."""
    return [
        Occurrence(a, j + 1)
        for a, j in _iter_occurrences(m.partner_map, 2 * m.size, pat.inverse)
    ]


def _iter_occurrences(pt: Sequence[int], n2: int, inv: Tuple[int, ...]):
    """Yield (a, j) for every occurrence of the pattern with partner order
    ``inv``: the window of starting points a..a+p-1 has partners
    j+inv[0]..j+inv[p-1], all after the window.  Ascending in a."""
    p = len(inv)
    inv0 = inv[0]
    if p == 1:
        for a in range(1, n2 + 1):
            j = pt[a] - inv0
            if j >= a:
                yield a, j
        return
    # an occurrence has pt[a+1] - pt[a] == inv[1] - inv[0]; that rarely
    # holds, so the rest of the window is checked only on such a hit
    d = inv[1] - inv0
    last = p - 1
    tail = tuple(enumerate(inv[2:], 2))  # (s, inv[s]) for s >= 2
    stop = n2 - p + 2
    for x, y in zip(pt[1:stop], pt[2:]):
        if y - x == d:
            a = pt[x]  # x = pt[a], and pt is an involution
            j = x - inv0
            # ending block must start after the p starting points
            if j >= a + last:
                for s, v in tail:
                    if pt[a + s] != v + j:
                        break
                else:
                    yield a, j


def _counter(invs: Sequence[Tuple[int, ...]]) -> Callable[[Sequence[int], int], List[int]]:
    """The function (pt, n2) -> occurrence counts of several patterns, given
    by their partner orders ``invs``, in one pass over the adjacent partners
    (pt[a], pt[a+1]) of a matching on n2 points.

    The patterns are grouped by their first partner difference inv[1] -
    inv[0] once, here, so a pair whose difference starts no pattern costs one
    dict lookup.  For one pattern, _iter_occurrences is faster on long
    matchings (41 against 58 us for 21 on size-500 random matchings, 2-core
    x86-64 VM, Python 3.11) and as fast on size-5 ones."""
    ones: List[int] = []  # size-1 patterns: every starting point is one
    # by first difference: (index, inv[0], p - 1, (s, inv[s]) for s >= 2)
    groups: Dict[int, List[Tuple[int, int, int, Tuple[Tuple[int, int], ...]]]] = {}
    for i, inv in enumerate(invs):
        if len(inv) == 1:
            ones.append(i)
        else:
            tail = tuple(enumerate(inv[2:], 2))
            groups.setdefault(inv[1] - inv[0], []).append((i, inv[0], len(inv) - 1, tail))
    get = groups.get
    r = len(invs)

    def count(pt: Sequence[int], n2: int) -> List[int]:
        counts = [0] * r
        for i in ones:
            counts[i] = n2 // 2
        for x, y in zip(pt[1:n2], pt[2:]):
            group = get(y - x)
            if group is not None:
                a = pt[x]
                for i, inv0, last, tail in group:
                    j = x - inv0
                    if j >= a + last:
                        for s, v in tail:
                            if pt[a + s] != v + j:
                                break
                        else:
                            counts[i] += 1
        return counts

    return count


def count_occurrences(m: Matching, pat: EndheredPattern) -> int:
    """Number of occurrences of ``pat`` in ``m``."""
    pt = m.partner_map
    return sum(1 for _ in _iter_occurrences(pt, 2 * m.size, pat.inverse))


def check_guard(n: int, allow_large: bool) -> None:
    """Reject a brute-force size n that is negative or, unless allow_large,
    above BRUTEFORCE_MAX_N."""
    if n < 0:
        raise PatternError("size must be nonnegative")
    if n > BRUTEFORCE_MAX_N and not allow_large:
        raise PatternError(
            f"brute force over (2*{n}-1)!! matchings exceeds the n <= "
            f"{BRUTEFORCE_MAX_N} guard; pass allow_large=True to override"
        )


def _census(
    n: int, pats: Sequence[EndheredPattern], allow_large: bool
) -> Dict[Tuple[int, ...], int]:
    """{(k_1, ..., k_r): number of matchings of size n with exactly k_i
    occurrences of pats[i]}: the one brute-force pass over all matchings."""
    check_guard(n, allow_large)
    count = _counter([pat.inverse for pat in pats])
    n2 = 2 * n
    counts: Dict[Tuple[int, ...], int] = {}
    for pt in _enumerate_partner_tuples(n):
        key = tuple(count(pt, n2))
        counts[key] = counts.get(key, 0) + 1
    return counts


def distribution_bruteforce(
    n: int, pat: EndheredPattern, allow_large: bool = False
) -> Dict[int, int]:
    """Exact occurrence-count distribution of ``pat`` over all matchings of size n.

    Returns {k: number of matchings with exactly k occurrences}; the counts
    sum to (2n-1)!!.
    """
    return distributions_bruteforce(n, [pat], allow_large)[0]


def joint_distribution_bruteforce(
    n: int,
    pat1: EndheredPattern,
    pat2: EndheredPattern,
    allow_large: bool = False,
) -> Dict[Tuple[int, int], int]:
    """Exact joint distribution of occurrence counts of two patterns."""
    return _census(n, [pat1, pat2], allow_large)


def distributions_bruteforce(
    n: int, pats: Sequence[EndheredPattern], allow_large: bool = False
) -> List[Dict[int, int]]:
    """Distributions of several patterns computed in a single enumeration pass."""
    results: List[Dict[int, int]] = [{} for _ in pats]
    for key, c in _census(n, pats, allow_large).items():
        for k, counts in zip(key, results):
            counts[k] = counts.get(k, 0) + c
    return results


def monte_carlo_distribution(
    n: int, pat: EndheredPattern, samples: int, seed: int
) -> Dict[int, float]:
    """Empirical occurrence-count distribution from uniform random matchings.

    Deterministic for a fixed seed; frequencies sum to 1.
    """
    if samples < 1:
        raise PatternError("need at least one sample")
    rng = random.Random(seed)
    inv = pat.inverse
    n2 = 2 * n
    counts: Dict[int, int] = {}
    for _ in range(samples):
        m = _random_matching(n, rng)
        k = sum(1 for _ in _iter_occurrences(m.partner_map, n2, inv))
        counts[k] = counts.get(k, 0) + 1
    return {k: c / samples for k, c in sorted(counts.items())}


def total_variation_to_poisson_half(freqs: Dict[int, float]) -> float:
    """Total-variation distance between an empirical pmf and Poisson(1/2)."""
    support = max(freqs, default=0) + 60
    half = math.exp(-0.5)
    tv = 0.0
    for k in range(support + 1):
        tv += abs(freqs.get(k, 0.0) - half)
        half = half / (2 * (k + 1))
    return tv / 2
