"""Output checks written apart from the package under test.

Each oracle here recomputes a fact from the generated input (or from
mathematics) without calling the package, so a bug in the package cannot
also hide in its check.
"""

from __future__ import annotations

import math
import random
import re
from typing import Dict, Iterable, List, Sequence, Tuple

# Bracket types in the package's First-Come-First-Served preference order.
# Only the first four are written by the generators.
BRACKETS = (("(", ")"), ("[", "]"), ("{", "}"), ("<", ">"))
_OPEN = {op: t for t, (op, _) in enumerate(BRACKETS)}
_CLOSE = {cl: t for t, (_, cl) in enumerate(BRACKETS)}
# Letter bracket types follow the four symbol pairs; lowercase opens.
for _t, _ch in enumerate("abcdefghijklmnopqrstuvwxyz", start=len(BRACKETS)):
    _OPEN[_ch] = _t
    _CLOSE[_ch.upper()] = _t


def double_factorial(m: int) -> int:
    out = 1
    for v in range(m, 1, -2):
        out *= v
    return out


def schema_errors(value, schema: dict, path: str = "$") -> List[str]:
    """Validate against the JSON Schema subset used in docs/schemas/."""
    errors: List[str] = []
    kind = schema.get("type")
    kinds = {
        "object": dict,
        "array": list,
        "string": str,
        "boolean": bool,
        "number": (int, float),
        "integer": int,
    }
    if kind and (
        not isinstance(value, kinds[kind])
        or (kind in ("integer", "number") and isinstance(value, bool))
    ):
        return [f"{path}: expected {kind}"]
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum")
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: {value} below minimum")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        errors.append(f"{path}: {value!r} does not match {schema['pattern']}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0) or len(value) > schema.get("maxItems", len(value)):
            errors.append(f"{path}: {len(value)} items out of range")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                errors += schema_errors(item, sub, f"{path}[{i}]")
    if isinstance(value, dict):
        errors += [f"{path}: missing {key}" for key in schema.get("required", []) if key not in value]
        props = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                errors += schema_errors(item, props[key], f"{path}.{key}")
                continue
            matched = [sub for pat, sub in patterns.items() if re.search(pat, key)]
            for sub in matched:
                errors += schema_errors(item, sub, f"{path}.{key}")
            if matched:
                continue
            if extra is False:
                errors.append(f"{path}: unexpected key {key}")
            elif isinstance(extra, dict):
                errors += schema_errors(item, extra, f"{path}.{key}")
    return errors


def parse_pairs(text: str) -> List[Tuple[int, int]]:
    """Sorted base pairs of extended dot-bracket text (one stack per type)."""
    stacks: Dict[int, List[int]] = {}
    pairs = []
    for pos, ch in enumerate(text, start=1):
        if ch in _OPEN:
            stacks.setdefault(_OPEN[ch], []).append(pos)
        elif ch in _CLOSE:
            pairs.append((stacks[_CLOSE[ch]].pop(), pos))
        elif ch != ".":
            raise ValueError(f"unexpected character {ch!r}")
    if any(stacks.values()):
        raise ValueError("unmatched opening bracket")
    return sorted(pairs)


def bracket_types(text: str) -> int:
    """Number of distinct bracket types that occur in the text."""
    return len({_OPEN.get(ch, _CLOSE.get(ch)) for ch in text} - {None})


def crossing_count(pairs: Sequence[Tuple[int, int]]) -> int:
    """Pairs of pairs (i, j), (k, l) with i < k < j < l, counted with a
    Fenwick tree over right ends while sweeping left ends in order."""
    size = max((j for _, j in pairs), default=0)
    tree = [0] * (size + 1)

    def prefix(x: int) -> int:
        total = 0
        while x > 0:
            total += tree[x]
            x -= x & -x
        return total

    crossings = 0
    for k, l in sorted(pairs):
        crossings += prefix(l - 1) - prefix(k)
        x = l
        while x <= size:
            tree[x] += 1
            x += x & -x
    return crossings


def distance_violations(pairs: Iterable[Tuple[int, int]], theta: int) -> List[List[int]]:
    return [[i, j] for i, j in sorted(pairs) if j - i < theta]


def partners(pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """Partner list (0 sentinel) of the matching left after dropping unpaired
    positions and renumbering the paired ones 1..2m."""
    pairs = list(pairs)
    rank = {p: r for r, p in enumerate(sorted(p for pair in pairs for p in pair), start=1)}
    out = [0] * (2 * len(pairs) + 1)
    for i, j in pairs:
        out[rank[i]], out[rank[j]] = rank[j], rank[i]
    return out


def count_pattern(partner: Sequence[int], perm: Sequence[int]) -> int:
    """Occurrences of an endhered pattern: p consecutive starting points whose
    partners fill a consecutive block after them, ending point at offset o of
    the block being joined to start number perm[o - 1]."""
    p = len(perm)
    n2 = len(partner) - 1
    found = 0
    for a in range(1, n2 - p + 2):
        ends = partner[a : a + p]
        lo = min(ends)
        if lo > a + p - 1 and max(ends) - lo == p - 1:
            found += all(perm[e - lo] == s + 1 for s, e in enumerate(ends))
    return found


def collapse(partner: Sequence[int]) -> List[int]:
    """Shape of a matching: drop every arc (i, j) with (i+1, j-1) also an
    arc, renumber, and repeat until nothing changes."""
    while True:
        arcs = [(i, j) for i, j in enumerate(partner) if i and i < j]
        present = set(arcs)
        kept = [(i, j) for i, j in arcs if (i + 1, j - 1) not in present]
        if len(kept) == len(arcs):
            return list(partner)
        partner = partners(kept)


def poisson_half(k: int) -> float:
    return math.exp(-0.5) * 0.5**k / math.factorial(k)


def tv_to_poisson_half(freqs: Dict[int, float]) -> float:
    """Total variation distance; the Poisson mass outside the support of
    freqs is added in closed form."""
    inside = sum(abs(f - poisson_half(k)) for k, f in freqs.items())
    outside = 1.0 - sum(poisson_half(k) for k in freqs)
    return (inside + outside) / 2


def poisson_tv_floor(samples: int, seed: int, reps: int = 10) -> float:
    """Noise floor for the TV distance of `samples` draws: twice the largest
    TV seen over `reps` simulated Poisson(1/2) samples of that size, plus
    0.005 for the finite-n bias of the 21-count law at n = 500."""
    rng = random.Random(seed)
    cdf = []
    acc = 0.0
    for k in range(40):
        acc += poisson_half(k)
        cdf.append(acc)
    worst = 0.0
    for _ in range(reps):
        counts: Dict[int, int] = {}
        for _ in range(samples):
            u = rng.random()
            k = next((k for k, c in enumerate(cdf) if u < c), len(cdf))
            counts[k] = counts.get(k, 0) + 1
        worst = max(worst, tv_to_poisson_half({k: c / samples for k, c in counts.items()}))
    return 2 * worst + 0.005


def corrupt(text: str) -> str:
    """Change the first digit of an output, as a check that checks catch it."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1 :]
    return text + "0"
