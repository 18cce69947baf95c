"""Exact polynomial arithmetic for the cluster-method engine in `tables`.

Polynomials in z and t are dicts {(z power, t power): coefficient}, with
t = u - 1 marking a pattern occurrence.  Nothing is truncated and nothing is
symbolic; coefficients are Python integers.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Tuple


def _poly_mul(f: Dict, g: Dict) -> Dict:
    out: Dict[Tuple[int, int], int] = {}
    for (i, a), x in f.items():
        for (j, b), y in g.items():
            out[i + j, a + b] = out.get((i + j, a + b), 0) + x * y
    return out


def _poly_sub(f: Dict, g: Dict) -> Dict:
    out = dict(f)
    for key, y in g.items():
        out[key] = out.get(key, 0) - y
    return out


def _poly_dz(f: Dict) -> Dict:
    return {(i - 1, a): i * x for (i, a), x in f.items() if i}


def _z_coefficients_in_u(f: Dict) -> Dict[int, List[int]]:
    """{i: u-coefficients of [z^i]f}, substituting t = u - 1."""
    out: Dict[int, List[int]] = {}
    for (i, a), x in f.items():
        coeffs = out.setdefault(i, [])
        coeffs.extend([0] * (a + 1 - len(coeffs)))
        for k in range(a + 1):
            coeffs[k] += x * comb(a, k) * (-1) ** (a - k)
    return out
