"""Batch censuses of endhered patterns over collections of dot-bracket records.

Input is pre-annotated text (TSV or JSONL); per-record failures are recorded
in the report instead of aborting the batch.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .matchings import EndheredError, Matching
from .patterns import EndheredPattern, _counter
from .structure import (
    DEFAULT_ALPHABET,
    BracketAlphabet,
    StructureError,
    collapse_shape,
    matching_from_dotbracket,
)

# Census rows of interest: both size-2 patterns and all six size-3 patterns.
DEFAULT_PATTERNS = ("21", "12", "231", "312", "132", "321", "213", "123")


class CorpusError(EndheredError):
    """Raised for unreadable or malformed corpus files."""


@dataclass(frozen=True)
class CorpusRecord:
    """One named dot-bracket structure, optionally tagged with its source tool."""

    id: str
    structure: str
    tool: Optional[str] = None


@dataclass
class PatternCensus:
    """Ids containing at least one occurrence, with their per-id counts."""

    ids: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, record_id: str, count: int) -> None:
        if count > 0:
            self.ids.append(record_id)
            self.counts[record_id] = count


@dataclass
class CorpusReport:
    """Per-pattern censuses for the raw matchings and their collapsed shapes."""

    per_pattern: Dict[str, Dict[str, PatternCensus]]
    record_count: int
    parse_failures: List[Tuple[str, str]]

    def to_json(self) -> str:
        payload = {
            pattern: {
                kind: {"ids": census.ids, "counts": census.counts}
                for kind, census in kinds.items()
            }
            for pattern, kinds in self.per_pattern.items()
        }
        payload["_totals"] = {
            "records": self.record_count,
            "parse_failures": [list(f) for f in self.parse_failures],
        }
        return json.dumps(payload)

    def to_text(self) -> str:
        lines = [f"records: {self.record_count}"]
        if self.parse_failures:
            lines.append(f"parse failures: {len(self.parse_failures)}")
            for rid, msg in self.parse_failures:
                lines.append(f"  {rid}: {msg}")
        for pattern, kinds in self.per_pattern.items():
            for kind, census in kinds.items():
                ids = ", ".join(census.ids) if census.ids else "-"
                lines.append(f"{pattern} [{kind}]: {len(census.ids)} ({ids})")
        return "\n".join(lines)


def load_corpus(path, format: str = "tsv") -> List[CorpusRecord]:
    """Read records from a TSV ("id<TAB>structure") or JSONL file.

    '#' comment lines and blank lines are skipped in TSV; an empty id is an
    error in both formats; duplicate ids are kept but warned about.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    records: List[CorpusRecord] = []
    if format == "tsv":
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2 or not fields[0]:
                raise CorpusError(f"{path}:{lineno}: expected 'id<TAB>structure'")
            tool = fields[2] if len(fields) > 2 and fields[2] else None
            records.append(CorpusRecord(fields[0], fields[1], tool))
    elif format == "jsonl":
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rid, structure = obj["id"], obj["structure"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad JSONL record: {exc}") from exc
            for key, value in (("id", rid), ("structure", structure)):
                if not isinstance(value, str):
                    raise CorpusError(
                        f"{path}:{lineno}: bad JSONL record: {key!r} must be a "
                        f"string, not {type(value).__name__}"
                    )
            if not rid:
                raise CorpusError(f"{path}:{lineno}: bad JSONL record: 'id' is empty")
            records.append(CorpusRecord(rid, structure, obj.get("tool")))
    else:
        raise CorpusError(f"unknown corpus format {format!r}")
    seen = set()
    for record in records:
        if record.id in seen:
            warnings.warn(f"duplicate corpus id {record.id!r}; keeping both")
        seen.add(record.id)
    return records


def _parse_records(
    records: Sequence[CorpusRecord], alphabet: BracketAlphabet
) -> Tuple[List[Tuple[CorpusRecord, Matching]], List[Tuple[str, str]]]:
    parsed = []
    failures = []
    for record in records:
        try:
            parsed.append((record, matching_from_dotbracket(record.structure, alphabet)))
        except StructureError as exc:
            failures.append((record.id, str(exc)))
    return parsed, failures


def analyze(
    records: Sequence[CorpusRecord],
    patterns: Optional[Sequence[EndheredPattern]] = None,
    alphabet: BracketAlphabet = DEFAULT_ALPHABET,
) -> CorpusReport:
    """Census every pattern over the raw matchings and their collapsed shapes.

    A pattern given more than once (as "12" and "1,2", say) is counted once,
    in the place it first appears."""
    if patterns is None:
        patterns = [EndheredPattern.from_string(p) for p in DEFAULT_PATTERNS]
    patterns = list(dict.fromkeys(patterns))
    count = _counter([pat.inverse for pat in patterns])
    per_pattern = {
        str(pat): {"secondary": PatternCensus(), "shape": PatternCensus()}
        for pat in patterns
    }
    parsed, failures = _parse_records(records, alphabet)
    for record, matching in parsed:
        shape = collapse_shape(matching)
        counts = count(matching.partner_map, 2 * matching.size)
        shape_counts = count(shape.partner_map, 2 * shape.size)
        for kinds, k, k_shape in zip(per_pattern.values(), counts, shape_counts):
            kinds["secondary"].add(record.id, k)
            kinds["shape"].add(record.id, k_shape)
    return CorpusReport(per_pattern, len(records), failures)


def scatter_data(
    records: Sequence[CorpusRecord], alphabet: BracketAlphabet = DEFAULT_ALPHABET
) -> List[Tuple[str, int, int, int]]:
    """Rows (id, matching size, count of 21, count of 321), omitting records
    with no occurrence of either pattern."""
    count = _counter([EndheredPattern.from_string(p).inverse for p in ("21", "321")])
    parsed, _ = _parse_records(records, alphabet)
    rows = []
    for record, matching in parsed:
        c21, c321 = count(matching.partner_map, 2 * matching.size)
        if c21 or c321:
            rows.append((record.id, matching.size, c21, c321))
    return rows


def scatter_csv(rows: Sequence[Tuple[str, int, int, int]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "size", "count_21", "count_321"])
    writer.writerows(rows)
    return buf.getvalue()


def bracket_type_stats(
    records: Sequence[CorpusRecord], alphabet: BracketAlphabet = DEFAULT_ALPHABET
) -> Dict[int, List[str]]:
    """Group record ids by how many distinct bracket types their text uses."""
    openers = alphabet.openers
    closers = alphabet.closers
    stats: Dict[int, List[str]] = {}
    for record in records:
        types = set()
        for ch in record.structure:
            if ch in openers:
                types.add(openers[ch])
            elif ch in closers:
                types.add(closers[ch])
        stats.setdefault(len(types), []).append(record.id)
    return dict(sorted(stats.items()))
