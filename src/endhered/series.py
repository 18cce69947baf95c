"""Truncated bivariate power series with exact coefficients.

Series in z (truncated at a fixed degree) and u (unbounded), with integer or
rational coefficients.  Enough arithmetic for the generating-function
expansions used by the table builders; nothing symbolic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .matchings import EndheredError


class TruncatedBivariateSeries:
    """Polynomial in z and u, with every z-power above max_degree discarded."""

    __slots__ = ("max_degree", "coefficients")

    def __init__(self, max_degree: int, coefficients: Dict[Tuple[int, int], object] = None):
        if max_degree < 0:
            raise EndheredError("max_degree must be nonnegative")
        self.max_degree = max_degree
        self.coefficients = {
            key: c
            for key, c in (coefficients or {}).items()
            if key[0] <= max_degree and c != 0
        }

    @classmethod
    def zero(cls, max_degree: int) -> "TruncatedBivariateSeries":
        return cls(max_degree)

    @classmethod
    def term(cls, max_degree: int, coeff, z_power: int = 0, u_power: int = 0):
        return cls(max_degree, {(z_power, u_power): coeff})

    def coefficient(self, z_power: int, u_power: int):
        return self.coefficients.get((z_power, u_power), 0)

    def __add__(self, other: "TruncatedBivariateSeries") -> "TruncatedBivariateSeries":
        deg = min(self.max_degree, other.max_degree)
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, 0) + c
        return TruncatedBivariateSeries(deg, out)

    def __mul__(self, other: "TruncatedBivariateSeries") -> "TruncatedBivariateSeries":
        deg = min(self.max_degree, other.max_degree)
        out: Dict[Tuple[int, int], object] = {}
        for (za, ua), ca in self.coefficients.items():
            if za > deg:
                continue
            for (zb, ub), cb in other.coefficients.items():
                z = za + zb
                if z > deg:
                    continue
                key = (z, ua + ub)
                out[key] = out.get(key, 0) + ca * cb
        return TruncatedBivariateSeries(deg, out)

    def scale(self, factor) -> "TruncatedBivariateSeries":
        return TruncatedBivariateSeries(
            self.max_degree, {key: c * factor for key, c in self.coefficients.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedBivariateSeries)
            and self.max_degree == other.max_degree
            and self.coefficients == other.coefficients
        )

    def __repr__(self) -> str:
        terms = ", ".join(
            f"z^{z} u^{u}: {c}" for (z, u), c in sorted(self.coefficients.items())
        )
        return f"TruncatedBivariateSeries(deg<={self.max_degree}, {{{terms}}})"
