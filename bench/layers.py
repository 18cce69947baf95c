"""What the traced run wraps in each layer, and the per-layer metrics it
derives from the spans.

Layers are named after the package's modules.  `d132_series` lives in
`tables` but is reported as the `series` layer, since it is the only caller
of the truncated-series arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional


def targets(pkg) -> list:
    """(module, attribute, span name, is generator, info) for every traced call."""
    m, p, t, a, s, c = pkg.matchings, pkg.patterns, pkg.tables, pkg.asymptotics, pkg.structure, pkg.corpus
    size = lambda args, result: args[0]  # noqa: E731
    plain = [
        (m, "random_matching", "matchings.random_matching", size),
        (m, "_random_matching", "matchings._random_matching", size),
        (p, "count_occurrences", "patterns.count_occurrences", None),
        (p, "distribution_bruteforce", "patterns.distribution_bruteforce",
         lambda args, r: (args[0], args[1].size, sum(r.values()), sum(k * v for k, v in r.items()))),
        (p, "monte_carlo_distribution", "patterns.monte_carlo_distribution", None),
        (p, "total_variation_to_poisson_half", "patterns.total_variation_to_poisson_half", None),
        (t, "table_a21", "tables.table_a21", lambda args, r: len(r.entries)),
        (t, "table_c321", "tables.table_c321", lambda args, r: len(r.entries)),
        (t, "table_d132", "tables.table_d132", lambda args, r: len(r.entries)),
        (t, "d132_series", "series.d132_series", None),
        (t, "table_for_pattern", "tables.table_for_pattern", None),
        (t, "avoid21_incl_excl", "tables.avoid21_incl_excl", None),
        (t, "a21_closed_form", "tables.a21_closed_form", None),
        (t, "egf_row_b", "tables.egf_row_b", None),
        (a, "log_asym_a21", "asymptotics.log_asym_a21", None),
        (a, "avoidance_probability_21", "asymptotics.avoidance_probability_21", None),
        (a, "row_ratio_21", "asymptotics.row_ratio_21", None),
        (s, "parse_dotbracket", "structure.parse_dotbracket", lambda args, r: len(r.pairs)),
        (s, "serialize_dotbracket", "structure.serialize_dotbracket", lambda args, r: len(args[0].pairs)),
        (s, "validate_waterman_ponty", "structure.validate_waterman_ponty",
         lambda args, r: (len(args[0].pairs), len(r.monogamy_violations)
                          + len(r.distance_violations) + len(r.pseudoknot_violations))),
        (s, "to_matching", "structure.to_matching", lambda args, r: len(args[0].pairs)),
        (s, "collapse_shape", "structure.collapse_shape", lambda args, r: (args[0].size, r.size)),
        (c, "load_corpus", "corpus.load_corpus", lambda args, r: len(r)),
        (c, "analyze", "corpus.analyze", lambda args, r: (len(args[0]), len(r.parse_failures))),
        (c, "scatter_data", "corpus.scatter_data", lambda args, r: len(args[0])),
        (c, "bracket_type_stats", "corpus.bracket_type_stats", lambda args, r: len(args[0])),
        (pkg.cli, "run", "cli.run", None),
    ]
    generators = [
        (m, "enumerate_matchings", "matchings.enumerate_matchings", lambda args, steps: steps),
        (p, "_iter_occurrences", "patterns._iter_occurrences",
         lambda args, steps: (args[1], len(args[2]), steps)),
    ]
    return [(mod, attr, name, False, info) for mod, attr, name, info in plain] + [
        (mod, attr, name, True, info) for mod, attr, name, info in generators
    ]


class Calls:
    """The traced run's spans, by name."""

    def __init__(self, spans: List[tuple], selfs: List[float]) -> None:
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        self.child_busy: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        per_parent: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, span in enumerate(spans):
            name, _, _, parent, _, busy, info = span
            self.by_name[name].append((busy, selfs[idx], info))
            if parent >= 0:
                per_parent[parent][name.split(".")[0]] += busy
        for idx, span in enumerate(spans):
            if span[0].startswith("bench."):
                self.child_busy[span[0]].append(per_parent.get(idx, {}))

    def rows(self, name: str, where=None) -> List[tuple]:
        """Spans of calls that returned; a call that raised has no info."""
        rows = [r for r in self.by_name.get(name, []) if r[2] is not None]
        return [r for r in rows if where is None or where(r[2])]

    def mean_self(self, name: str) -> Optional[float]:
        rows = self.by_name.get(name, [])
        return sum(r[1] for r in rows) / len(rows) if rows else None

    def mean_busy(self, name: str, where=None) -> Optional[float]:
        rows = self.rows(name, where) if where else self.by_name.get(name, [])
        return sum(r[0] for r in rows) / len(rows) if rows else None

    def busy_per(self, name: str, weight, where=None, field: int = 0) -> Optional[float]:
        rows = self.rows(name, where)
        total = sum(weight(r[2]) for r in rows)
        return sum(r[field] for r in rows) / total if total else None

    def layer_per_op(self, op: str, layer: str) -> Optional[float]:
        children = self.child_busy.get(op, [])
        return sum(c.get(layer, 0.0) for c in children) / len(children) if children else None


US, S, MS = 1e6, 1.0, 1e3
N500 = 1000  # points in a size-500 matching
# (name, unit, scale, value from the Calls): unit costs, measured on the
# workload's own calls; None where the workload makes none.
UNIT_COSTS = [
    ("matchings.random_matching_us", "us", US,
     lambda g: g.mean_busy("matchings._random_matching")),
    ("matchings.enumerate_us_per_matching", "us", US,
     lambda g: g.busy_per("matchings.enumerate_matchings", lambda steps: steps)),
    ("patterns.kernel_n500_us", "us", US,
     lambda g: g.mean_busy("patterns._iter_occurrences", lambda info: info[0] == N500)),
    ("patterns.kernel_n5_us", "us", US,
     lambda g: g.busy_per("patterns.distribution_bruteforce", lambda info: info[2],
                          lambda info: info[0] == 5, field=1)),
    ("patterns.distribution_bruteforce_s", "s", S,
     lambda g: g.mean_busy("patterns.distribution_bruteforce", lambda info: info[0] == 5)),
    ("tables.table_a21_s", "s", S, lambda g: g.mean_busy("tables.table_a21")),
    ("tables.table_c321_s", "s", S, lambda g: g.mean_busy("tables.table_c321")),
    ("tables.table_d132_s", "s", S, lambda g: g.mean_busy("tables.table_d132")),
    ("series.d132_series_s", "s", S, lambda g: g.mean_busy("series.d132_series")),
    ("tables.cross_route_s", "s", S, lambda g: g.layer_per_op("bench.routes", "tables")),
    ("asymptotics.limit_checks_s", "s", S, lambda g: g.layer_per_op("bench.routes", "asymptotics")),
    ("tables.for_pattern_s", "s", S, lambda g: g.mean_busy("tables.table_for_pattern")),
    ("structure.validate_us_per_pair", "us", US,
     lambda g: g.busy_per("structure.validate_waterman_ponty", lambda info: info[0])),
    ("structure.serialize_us_per_pair", "us", US,
     lambda g: g.busy_per("structure.serialize_dotbracket", lambda pairs: pairs)),
    ("structure.parse_us_per_pair", "us", US,
     lambda g: g.busy_per("structure.parse_dotbracket", lambda pairs: pairs)),
    ("structure.to_matching_us_per_pair", "us", US,
     lambda g: g.busy_per("structure.to_matching", lambda pairs: pairs)),
    ("structure.collapse_us_per_arc", "us", US,
     lambda g: g.busy_per("structure.collapse_shape", lambda info: info[0])),
    ("corpus.load_us_per_record", "us", US,
     lambda g: g.busy_per("corpus.load_corpus", lambda records: records)),
    ("corpus.analyze_us_per_record", "us", US,
     lambda g: g.busy_per("corpus.analyze", lambda info: info[0])),
    ("corpus.scatter_us_per_record", "us", US,
     lambda g: g.busy_per("corpus.scatter_data", lambda records: records)),
    ("corpus.brackets_us_per_record", "us", US,
     lambda g: g.busy_per("corpus.bracket_type_stats", lambda records: records)),
    ("cli.overhead_ms", "ms", MS,
     lambda g: g.mean_self("cli.run")),
]


def _sum(g: Calls, name: str, value) -> float:
    return sum(value(r[2]) for r in g.rows(name))


def counts(g: Calls, counters: Dict[str, float]) -> Dict[str, tuple]:
    """Work counts of the workload's traced pass."""
    windows = _sum(g, "patterns._iter_occurrences", lambda i: max(0, i[0] - i[1] + 1)) + _sum(
        g, "patterns.distribution_bruteforce", lambda i: max(0, 2 * i[0] - i[1] + 1) * i[2]
    )
    occurrences = _sum(g, "patterns._iter_occurrences", lambda i: i[2]) + _sum(
        g, "patterns.distribution_bruteforce", lambda i: i[3]
    )
    return {
        "matchings.sampled": (len(g.rows("matchings._random_matching")), "count"),
        "matchings.enumerated": (_sum(g, "matchings.enumerate_matchings", lambda s: s), "count"),
        "patterns.windows_scanned": (windows, "count"),
        "patterns.occurrences": (occurrences, "count"),
        "patterns.hit_ratio": (occurrences / windows if windows else 0.0, "ratio"),
        "tables.entries": (counters.get("entries", 0), "count"),
        "tables.digits": (counters.get("digits", 0), "count"),
        "structure.pairs": (_sum(g, "structure.parse_dotbracket", lambda pairs: pairs), "count"),
        "structure.violations": (_sum(g, "structure.validate_waterman_ponty", lambda i: i[1]), "count"),
        "structure.arcs_removed": (_sum(g, "structure.collapse_shape", lambda i: i[0] - i[1]), "count"),
        "corpus.records": (_sum(g, "corpus.load_corpus", lambda records: records), "count"),
        "corpus.parse_failures": (_sum(g, "corpus.analyze", lambda i: i[1]), "count"),
        "cli.stdout_bytes": (counters.get("stdout_bytes", 0), "count"),
    }


def layer_self_times(g: Calls) -> Dict[str, float]:
    """Total self time per layer, the benchmark's own spans included as `bench`."""
    out: Dict[str, float] = defaultdict(float)
    for name, rows in g.by_name.items():
        out[name.split(".")[0]] += sum(r[1] for r in rows)
    return dict(out)


def per_layer(calls: Calls, counters: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric; a unit cost of a layer the workload never
    calls is reported as 0."""
    metrics: Dict[str, dict] = {}
    for name, unit, scale, value in UNIT_COSTS:
        metrics[name] = {"value": (value(calls) or 0.0) * scale, "unit": unit}
    for name, (v, unit) in counts(calls, counters).items():
        metrics[name] = {"value": v, "unit": unit}
    return metrics
