"""Exact distribution tables for endhered patterns.

`table_for_pattern` serves every permutation pattern from one engine: the
Goulden-Jackson cluster method (as Elizalde and Noy used it for consecutive
patterns), carried to matchings and evaluated by a linear recurrence on the
rows; `wilf_classes` groups the patterns of any size by those rows.  The
paper's own routes for the size-2 pattern and both size-3 classes stay as
independent cross-checks that share no arithmetic with the engine:
recurrences, binomial closed forms, inclusion-exclusion sums, an EGF
expansion for the size-2 pattern, and the substitution into the matching
generating function for the 132-class, expanded by the binomial theorem.
All arithmetic is exact.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from itertools import permutations, zip_longest
from math import comb, factorial, lgamma, log
from typing import Dict, List, Tuple

from .matchings import EndheredError
from .patterns import EndheredPattern, PatternError
from .series import _poly_dz, _poly_mul, _poly_sub, _z_coefficients_in_u


def double_factorial(m: int) -> int:
    """m!! with the conventions (-1)!! = 1 and 0!! = 1."""
    if m < -1:
        raise EndheredError("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class DistributionTable:
    """Exact counts entries[n, k] for 1 <= n <= max_n, with row sums (2n-1)!!."""

    def __init__(self, max_n: int, entries: Dict[Tuple[int, int], int], pattern: str):
        self.max_n = max_n
        self.entries = {key: v for key, v in entries.items() if v != 0}
        self.pattern = pattern

    def __getitem__(self, key: Tuple[int, int]) -> int:
        return self.entries.get(key, 0)

    def row(self, k: int) -> List[int]:
        return [self[n, k] for n in range(1, self.max_n + 1)]

    def column(self, n: int) -> Dict[int, int]:
        return {k: v for (nn, k), v in sorted(self.entries.items()) if nn == n}

    def max_k(self) -> int:
        return max((k for (_, k) in self.entries), default=0)

    def _check_digits(self) -> None:
        """Raise EndheredError if an entry has more decimal digits than the
        interpreter converts to a string (sys.get_int_max_str_digits(), 0
        for no limit).  No entry exceeds its row sum (2n-1)!!, so while
        (2*max_n-1)!! is below 10^(limit-1) only its logarithm is taken."""
        # interpreters before 3.10.7 have neither the limit nor its getter
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        n = self.max_n
        # log10 (2n-1)!! = log10 (2n)! / (2^n n!)
        if not limit or (lgamma(2 * n + 1) - lgamma(n + 1) - n * log(2)) / log(10) < limit - 1:
            return
        bound = 10**limit
        over = min((key for key, v in self.entries.items() if v >= bound), default=None)
        if over is not None:
            raise EndheredError(
                f"count at n={over[0]}, k={over[1]} has more than {limit} digits, the "
                "interpreter's limit for integer-to-string conversion "
                "(sys.get_int_max_str_digits())"
            )

    def to_text(self) -> str:
        """Aligned layout: one line per k, one column per n."""
        self._check_digits()
        ks = range(0, self.max_k() + 1)
        header = ["k\\n"] + [str(n) for n in range(1, self.max_n + 1)]
        rows = [[str(k)] + [str(v) for v in self.row(k)] for k in ks]
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths))
            for r in [header] + rows
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        self._check_digits()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "count"])
        for (n, k), v in sorted(self.entries.items()):
            writer.writerow([n, k, str(v)])
        return buf.getvalue()

    def to_json(self) -> str:
        self._check_digits()
        # counts as decimal strings: consumers must not truncate to 64 bits
        payload = {
            "pattern": self.pattern,
            "entries": [[n, k, str(v)] for (n, k), v in sorted(self.entries.items())],
        }
        return json.dumps(payload)


def avoid21(n: int) -> int:
    """Number of size-n matchings avoiding pattern 21, by the two-term recurrence."""
    if n < 0:
        raise EndheredError("n must be nonnegative")
    prev, cur = 1, 1  # values for sizes 0 and 1
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, 2 * m * cur + 2 * (m - 1) * prev
    return cur


def avoid21_incl_excl(n: int) -> int:
    """Same quantity via the alternating double-factorial sum."""
    if n < 1:
        raise EndheredError("n must be positive")
    m = n - 1
    return sum(
        (-1) ** (m - k) * comb(m, k) * double_factorial(2 * k + 1) for k in range(m + 1)
    )


def row1_21(n: int) -> int:
    """Number of size-n matchings with exactly one occurrence of 21."""
    if n < 1:
        raise EndheredError("n must be positive")
    if n == 1:
        return 0
    prev, cur = 0, 1  # values for sizes 1 and 2
    for m in range(2, n):
        prev, cur = cur, 2 * m * (cur + prev)
    return cur


def a21_closed_form(n: int, k: int) -> int:
    """a_{n,k} = C(n-1, k) * avoid21(n-k), valid for n > k >= 0."""
    if not n > k >= 0:
        raise EndheredError("closed form requires n > k >= 0")
    return comb(n - 1, k) * avoid21(n - k)


def table_a21(max_n: int) -> DistributionTable:
    """Distribution of pattern 21 (equivalently 12) up to size max_n, by recurrence."""
    if max_n < 1:
        raise EndheredError("max_n must be positive")
    entries: Dict[Tuple[int, int], int] = {(1, 0): 1}
    row = {0: 1}
    for n in range(1, max_n):
        nxt: Dict[int, int] = {}
        for k in range(0, n + 1):
            v = (
                row.get(k - 1, 0)
                + 2 * (n - k) * row.get(k, 0)
                + 2 * (k + 1) * row.get(k + 1, 0)
            )
            if v:
                nxt[k] = v
        row = nxt
        for k, v in row.items():
            entries[n + 1, k] = v
    return DistributionTable(max_n, entries, "21")


def egf_row_b(k: int, max_n: int) -> List[Fraction]:
    """Coefficients of z^0..z^max_n in z^k/k! * e^-z / (1-2z)^(3/2).

    n! times the z^n coefficient equals the number of size-(n+1) matchings
    with k occurrences of pattern 21.
    """
    if k < 0:
        raise EndheredError("k must be nonnegative")
    # e^-z * (1-2z)^{-3/2}, then shift by z^k / k!
    base = [
        sum(
            Fraction((-1) ** i, factorial(i))
            * Fraction(double_factorial(2 * (m - i) + 1), factorial(m - i))
            for i in range(m + 1)
        )
        for m in range(max_n + 1)
    ]
    kfac = factorial(k)
    return [
        (base[m - k] / kfac if m >= k else Fraction(0)) for m in range(max_n + 1)
    ]


def table_c321(max_n: int) -> DistributionTable:
    """Distribution of pattern 321 (equivalently 123), by the binomial sums."""
    if max_n < 1:
        raise EndheredError("max_n must be positive")
    entries: Dict[Tuple[int, int], int] = {}
    for n in range(1, max_n + 1):
        entries[n, 0] = sum(
            comb(n - s, s) * avoid21(n - s) for s in range(n // 2 + 1)
        )
        for k in range(1, n):
            v = sum(
                comb(k + s - 1, k) * comb(n - k - s, s) * avoid21(n - k - s)
                for s in range(1, (n - k) // 2 + 1)
            )
            if v:
                entries[n, k] = v
    return DistributionTable(max_n, entries, "321")


def d132_series(max_n: int) -> Dict[Tuple[int, int], int]:
    """{(n, k): [z^n u^k]} for n <= max_n of sum_m (2m-1)!! (z + (u-1)z^3)^m,
    the number of size-n matchings with k occurrences of pattern 132.

    By the binomial theorem, twice: the z^n u^k coefficient is the sum over
    j <= n/3 of (2(n-2j)-1)!! C(n-2j, j) C(j, k) (-1)^(j-k)."""
    odd = [1]  # odd[m] = (2m-1)!!
    for m in range(1, max_n + 1):
        odd.append(odd[-1] * (2 * m - 1))
    out: Dict[Tuple[int, int], int] = {}
    for n in range(max_n + 1):
        for j in range(n // 3 + 1):
            c = odd[n - 2 * j] * comb(n - 2 * j, j)
            for k in range(j + 1):
                out[n, k] = out.get((n, k), 0) + (-1) ** (j - k) * comb(j, k) * c
    return {key: v for key, v in out.items() if v}


def table_d132(max_n: int) -> DistributionTable:
    """Distribution of pattern 132 (equivalently 213, 231, 312)."""
    if max_n < 1:
        raise EndheredError("max_n must be positive")
    entries = {(n, k): v for (n, k), v in d132_series(max_n).items() if n >= 1}
    for (n, k), v in entries.items():
        if v < 0:
            raise AssertionError(f"negative count at ({n},{k}); expansion is wrong")
    return DistributionTable(max_n, entries, "132")


# The engine.  A cluster is a run of marked occurrences, each overlapping
# the next; with t = u - 1 marking an occurrence, clusters have generating
# function t z^p / (1 - t Q(z)), where Q sums z^d over the pattern's
# self-overlap shifts d.  Substituting g = z + clusters into the matching
# series F(x) = sum (2m-1)!! x^m gives D(z, u) = F(g), the table's
# generating function.  F = 1 + xF + 2x^2 F' turns that, with g = A/B, into
# P D' = M D - N for the polynomials below; [z^m] of it gives row m.


def _self_overlaps(sigma: Tuple[int, ...]) -> Dict[int, int]:
    """{d: c} for each shift 1 <= d < p at which two occurrences of the
    pattern with partner order ``sigma`` can overlap: sigma[s] - sigma[s-d]
    is the same value c for every s >= d, and |c| = d."""
    p = len(sigma)
    out = {}
    for d in range(1, p):
        diffs = {sigma[s] - sigma[s - d] for s in range(d, p)}
        if len(diffs) == 1 and abs(min(diffs)) == d:
            out[d] = min(diffs)
    return out


def _cluster_rows(pat: EndheredPattern, max_n: int) -> List[List[int]]:
    """Rows 0..max_n, where row n lists by k the number of size-n matchings
    with exactly k occurrences of ``pat``."""
    p = pat.size
    if p == 1:
        # every arc is an occurrence; the recurrence would have to divide by u
        return [[0] * n + [double_factorial(2 * n - 1)] for n in range(max_n + 1)]
    shifts = _self_overlaps(pat.inverse)
    # the cluster series assumes that overlapping occurrences all move their
    # ending blocks the same way; no pattern of size <= 10 breaks this
    if len({c > 0 for c in shifts.values()}) > 1:
        raise EndheredError(
            f"pattern {pat} overlaps itself at shifts of both signs; "
            "the cluster engine does not cover it"
        )
    tq = {(d, 1): 1 for d in shifts}
    a = _poly_sub({(1, 0): 1, (p, 1): 1}, _poly_mul({(1, 0): 1}, tq))
    b = _poly_sub({(0, 0): 1}, tq)
    r = _poly_sub(_poly_mul(_poly_dz(a), b), _poly_mul(a, _poly_dz(b)))
    pp = _z_coefficients_in_u(_poly_mul({(0, 0): 2}, _poly_mul(_poly_mul(a, a), b)))
    mm = _z_coefficients_in_u(_poly_mul(r, _poly_sub(b, a)))
    nn = _z_coefficients_in_u(_poly_mul(r, b))
    # [z^0]M = 1 and P starts at z^2, so
    # d_m = sum_{j>=1} ((m-j) [z^(j+1)]P - [z^j]M) d_{m-j} + [z^m]N
    terms = [
        (j, list(zip_longest(pp.get(j + 1, []), mm.get(j, []), fillvalue=0)))
        for j in range(1, max(max(pp) - 1, max(mm)) + 1)
    ]
    rows = [[1]]
    for m in range(1, max_n + 1):
        row = [0] * (m + 1)
        for j, coeffs in terms:
            if j > m:
                break
            src = rows[m - j]
            for e, (x, y) in enumerate(coeffs):
                c = (m - j) * x - y
                if c:
                    for k, v in enumerate(src, e):
                        row[k] += c * v
        for k, v in enumerate(nn.get(m, [])):
            row[k] += v
        rows.append(row)
    return rows


def table_for_pattern(pattern: str, max_n: int) -> DistributionTable:
    """Exact table for any permutation pattern string, by the cluster method."""
    pat = EndheredPattern.from_string(pattern)
    if max_n < 1:
        raise EndheredError("max_n must be positive")
    rows = _cluster_rows(pat, max_n)
    entries = {
        (n, k): v for n in range(1, max_n + 1) for k, v in enumerate(rows[n])
    }
    return DistributionTable(max_n, entries, pattern)


def wilf_classes(p: int, max_n: int) -> List[List[EndheredPattern]]:
    """Partition all p! patterns of size p by their distributions for n <= max_n,
    read from the engine's rows.

    Classes and their members are returned in lexicographic pattern order.
    """
    if p < 1:
        raise PatternError("pattern size must be positive")
    signatures: Dict[Tuple, List[EndheredPattern]] = {}
    for perm in permutations(range(1, p + 1)):
        pat = EndheredPattern(perm)
        key = tuple(map(tuple, _cluster_rows(pat, max_n)[1:]))
        signatures.setdefault(key, []).append(pat)
    # permutations() runs in lexicographic order, and so do first members
    return list(signatures.values())
