"""Seeded input generators for the benchmark workloads.

Only the standard library is used and nothing here calls the package under
test, so the same seed always gives the same inputs and the inputs do not
depend on the code being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from checks import BRACKETS, parse_pairs

TOOLS = ("RNAfold", "IPknot", "pKiss", "curated")
# The corpus mix, per shard of 50 records: most records are tRNA-sized, a
# share are pseudoknotted with 2-4 bracket types, two are malformed, and three
# have hundreds of pairs.  Those three have fixed sizes, so that the corpus
# costs about the same for every seed.
SHARD_MIX = (("trna", 35), ("trna_pk", 10), ("large", 2), ("large_pk", 1), ("malformed", 2))
LARGE_PAIRS = {"large": (150, 250), "large_pk": (400,)}


@dataclass(frozen=True)
class Structure:
    """A generated dot-bracket structure and the facts the checks need."""

    text: str
    pairs: Tuple[Tuple[int, int], ...]  # sorted, 1-based
    types_used: int


def _nested_chars(rng: random.Random, n_pairs: int) -> List[str]:
    """Stems of 3-8 stacked pairs arranged as a random plane tree, with
    hairpin loops of at least three unpaired bases."""
    stems = []
    left = n_pairs
    while left > 0:
        h = min(left, rng.randint(3, 8))
        stems.append(h)
        left -= h
    out = ["."] * rng.randint(0, 10)
    stack: List[int] = []
    opened = 0
    last_open = False
    for _ in range(2 * len(stems)):
        if stack and (opened == len(stems) or rng.random() < 0.5):
            out += ["."] * (rng.randint(3, 8) if last_open else rng.randint(0, 4))
            out += [")"] * stack.pop()
            last_open = False
        else:
            out += ["."] * rng.randint(0, 4)
            stack.append(stems[opened])
            out += ["("] * stems[opened]
            opened += 1
            last_open = True
    out += ["."] * rng.randint(0, 10)
    return out


def _dot_runs(chars: List[str]) -> List[Tuple[int, int]]:
    """Maximal runs of unpaired positions as (start index, length), length >= 2."""
    runs = []
    i = 0
    while i < len(chars):
        if chars[i] == ".":
            j = i
            while j < len(chars) and chars[j] == ".":
                j += 1
            if j - i >= 2:
                runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def _add_pseudoknots(
    rng: random.Random, chars: List[str], n_types: int, helices: int, max_span: int
) -> int:
    """Pair unpaired runs across stems with bracket types 2..n_types.

    Helices of one type never cross each other, so the text parses back to
    exactly the pairs written.  Returns the number of types actually used.
    """
    used = 1
    for t in range(1, n_types):
        opener, closer = BRACKETS[t]
        runs = _dot_runs(chars)
        placed: List[Tuple[int, int]] = []
        for _ in range(helices):
            if len(runs) < 2:
                break
            r1 = rng.randrange(len(runs) - 1)
            start1, len1 = runs[r1]
            later = [r for r in range(r1 + 1, len(runs)) if runs[r][0] - start1 <= max_span]
            if not later:
                continue
            r2 = rng.choice(later)
            start2, len2 = runs[r2]
            h = rng.randint(2, min(6, len1, len2))
            left = start1 + rng.randint(0, len1 - h)
            right = start2 + rng.randint(0, len2 - h)
            span = (left, right + h - 1)
            if any(a < span[0] < b < span[1] or span[0] < a < span[1] < b for a, b in placed):
                continue
            placed.append(span)
            for s in range(h):
                chars[left + s] = opener
                chars[right + s] = closer
            runs = [r for k, r in enumerate(runs) if k not in (r1, r2)]
        if placed:
            used += 1
    return used


def structure(
    rng: random.Random, n_pairs: int, n_types: int, helices: int = 1, max_span: int = 200
) -> Structure:
    """A random structure of about n_pairs base pairs using up to n_types
    bracket types; pseudoknot helices are added on top of the nested stems."""
    pk_pairs = 0 if n_types == 1 else min(n_pairs // 4, 4 * helices * (n_types - 1))
    chars = _nested_chars(rng, n_pairs - pk_pairs)
    used = _add_pseudoknots(rng, chars, n_types, helices, max_span) if n_types > 1 else 1
    text = "".join(chars)
    return Structure(text, tuple(parse_pairs(text)), used)


def shifted(s: Structure, k: int) -> Structure:
    """The same structure after k more unpaired bases at the 5' end."""
    return Structure("." * k + s.text, tuple((i + k, j + k) for i, j in s.pairs), s.types_used)


def malformed(rng: random.Random, text: str) -> str:
    """Break a structure in one of three ways the parser must reject."""
    kind = rng.randrange(3)
    if kind == 0:
        return ")" + text
    if kind == 1:
        return text + "("
    dots = [i for i, ch in enumerate(text) if ch == "."]
    i = rng.choice(dots) if dots else len(text)
    return text[:i] + "#" + text[i + 1 :]


@dataclass(frozen=True)
class Record:
    id: str
    text: str
    tool: str
    kind: str  # one of the SHARD_MIX kinds
    pairs: Tuple[Tuple[int, int], ...]  # empty for malformed records


def corpus_shard(rng: random.Random, shard: int) -> List[Record]:
    """One shard in the SHARD_MIX proportions, in random order."""
    kinds = [(kind, j) for kind, count in SHARD_MIX for j in range(count)]
    rng.shuffle(kinds)
    records = []
    for i, (kind, j) in enumerate(kinds):
        if kind == "large":
            s = structure(rng, LARGE_PAIRS[kind][j], 1)
        elif kind == "large_pk":
            s = structure(rng, LARGE_PAIRS[kind][j], rng.randint(2, 4), 3)
        elif kind == "trna_pk":
            s = structure(rng, rng.randint(18, 24), rng.randint(2, 4), 1, 40)
        else:
            s = structure(rng, rng.randint(18, 24), 1)
        text, pairs = s.text, s.pairs
        if kind == "malformed":
            text, pairs = malformed(rng, text), ()
        records.append(Record(f"r{shard:02d}_{i:03d}", text, rng.choice(TOOLS), kind, pairs))
    return records


def write_shard(records: List[Record], directory: Path, shard: int) -> Tuple[Path, Path]:
    """Write one shard as TSV and as JSONL; returns both paths."""
    tsv = directory / f"shard{shard:02d}.tsv"
    jsonl = directory / f"shard{shard:02d}.jsonl"
    tsv.write_text("".join(f"{r.id}\t{r.text}\t{r.tool}\n" for r in records), encoding="utf-8")
    jsonl.write_text(
        "".join(json.dumps({"id": r.id, "structure": r.text, "tool": r.tool}) + "\n" for r in records),
        encoding="utf-8",
    )
    return tsv, jsonl


def write_copies(records: List[Record], path: Path, copies: int) -> Path:
    """Write `copies` copies of the records as one TSV file, copy c giving
    record r the id `<r.id>.<c>`; returns the path."""
    with path.open("w", encoding="utf-8") as out:
        for c in range(copies):
            out.write("".join(f"{r.id}.{c}\t{r.text}\t{r.tool}\n" for r in records))
    return path
