"""Exact distribution tables for endhered patterns of size 2 and 3.

Every route the source formulas provide is implemented independently:
recurrences, binomial closed forms, inclusion-exclusion sums, an EGF
expansion for the size-2 pattern, and a substitution into the matching
generating function for the 132-class.  All arithmetic is exact.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Tuple

from .matchings import EndheredError
from .series import TruncatedBivariateSeries


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

    def to_text(self) -> str:
        """Aligned layout: one line per k, one column per n."""
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "count"])
        for (n, k), v in sorted(self.entries.items()):
            writer.writerow([n, k, str(v)])
        return buf.getvalue()

    def to_json(self) -> str:
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


def d132_series(max_n: int) -> TruncatedBivariateSeries:
    """Bivariate series whose z^n u^k coefficient counts matchings with k
    occurrences of pattern 132: sum of (2n-1)!! (z + (u-1)z^3)^n."""
    base = TruncatedBivariateSeries(
        max_n, {(1, 0): 1, (3, 1): 1, (3, 0): -1}
    )
    total = TruncatedBivariateSeries.term(max_n, 1)
    power = TruncatedBivariateSeries.term(max_n, 1)
    for n in range(1, max_n + 1):
        power = power * base
        total = total + power.scale(double_factorial(2 * n - 1))
    return total


def table_d132(max_n: int) -> DistributionTable:
    """Distribution of pattern 132 (equivalently 213, 231, 312)."""
    if max_n < 1:
        raise EndheredError("max_n must be positive")
    series = d132_series(max_n)
    entries = {
        (n, k): v for (n, k), v in series.coefficients.items() if n >= 1
    }
    for (n, k), v in entries.items():
        if v < 0:
            raise AssertionError(f"negative count at ({n},{k}); expansion is wrong")
    return DistributionTable(max_n, entries, "132")


_TABLE_BUILDERS = {
    "21": table_a21,
    "12": table_a21,
    "123": table_c321,
    "321": table_c321,
    "132": table_d132,
    "213": table_d132,
    "231": table_d132,
    "312": table_d132,
}


def table_for_pattern(pattern: str, max_n: int) -> DistributionTable:
    """Formula-based table for any size-2 or size-3 pattern string."""
    try:
        builder = _TABLE_BUILDERS[pattern]
    except KeyError:
        raise EndheredError(
            f"no closed-form table for pattern {pattern!r} (sizes 2 and 3 only)"
        ) from None
    table = builder(max_n)
    return DistributionTable(max_n, table.entries, pattern)
