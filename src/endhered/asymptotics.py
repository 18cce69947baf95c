"""Floating-point evaluators for the limit laws of endhered pattern counts.

Everything is computed in log space so that the n^n growth never overflows;
exact big-integer counts are compared to the estimates through rational
ratios converted to float at the last moment.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .matchings import EndheredError
from .tables import a21_closed_form, avoid21, double_factorial


def log_asym_a21(n: int, k: int) -> float:
    """Natural log of the leading-order estimate for the number of size-n
    matchings with k occurrences of pattern 21:
    (1 / (2^k k!)) * (2/e)^(n + 1/2) * n^n."""
    if n < 1 or k < 0:
        raise EndheredError("need n >= 1 and k >= 0")
    return (
        -k * math.log(2.0)
        - math.lgamma(k + 1)
        + (n + 0.5) * (math.log(2.0) - 1.0)
        + n * math.log(n)
    )


def poisson_half_pmf(k: int) -> float:
    """Poisson(1/2) probability mass at k."""
    if k < 0:
        raise EndheredError("k must be nonnegative")
    return math.exp(-0.5 - k * math.log(2.0) - math.lgamma(k + 1))


def constant_Ck(k: int) -> Fraction:
    """Exact constant in the 321-class asymptotics: C_0 = 1 and, for k > 0,
    sum over s = 1..k of C(k-1, s-1) / (2^s s!)."""
    if k < 0:
        raise EndheredError("k must be nonnegative")
    if k == 0:
        return Fraction(1)
    return sum(
        Fraction(math.comb(k - 1, s - 1), 2**s * math.factorial(s))
        for s in range(1, k + 1)
    )


def asym_ratio_c(n: int, k: int) -> float:
    """Limit ratio c_{n,k} / (2n-1)!! ~ C_k / 2^k * n^-k."""
    if n < 1 or k < 0:
        raise EndheredError("need n >= 1 and k >= 0")
    return float(constant_Ck(k)) / (2**k * n**k)


def asym_ratio_d(n: int, k: int) -> float:
    """Limit ratio d_{n,k} / (2n-1)!! ~ 1 / (2^(2k) k!) * n^-k."""
    if n < 1 or k < 0:
        raise EndheredError("need n >= 1 and k >= 0")
    return 1.0 / (2 ** (2 * k) * math.factorial(k) * n**k)


def exact_ratio(numerator: int, denominator: int) -> float:
    """Big-integer ratio as a float, reduced first to avoid overflow."""
    return float(Fraction(numerator, denominator))


def avoidance_probability_21(n: int) -> float:
    """Exact probability that a uniform size-n matching avoids pattern 21."""
    return exact_ratio(avoid21(n), double_factorial(2 * n - 1))


def row_ratio_21(n: int, k: int) -> float:
    """Exact ratio a_{n,k} / a_{n,k+1}; tends to 2(k+1) as n grows."""
    return exact_ratio(a21_closed_form(n, k), a21_closed_form(n, k + 1))
