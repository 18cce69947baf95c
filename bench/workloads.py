"""The five workloads.

Each workload turns its seed into inputs, yields operations that drive the
package the way a user does (mostly `endhered.cli.run(argv)` with stdout
captured), and checks every output with the oracles in `checks`.  Every
operation is independent, so the traced run can replay the exact operations
of the untraced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import count, zip_longest
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import checks
import inputs

DEFAULT_PATTERNS = ("21", "12", "231", "312", "132", "321", "213", "123")


def run_cli(pkg, argv: List[str]) -> Tuple[int, str]:
    """`endhered.cli.run(argv)` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.run(argv)
    return code, buf.getvalue()


@dataclass
class Op:
    kind: str  # names the operation's span in the traced run
    items: int  # work units credited to the operation, fixed by its input
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    # Operations with the same label do the same work on the same input, so
    # the fastest of them measures that work with the least interference.
    work: str = ""

    @property
    def group(self) -> str:
        return self.work or self.kind


class Workload:
    name = ""

    def __init__(self, pkg, seed: int, workdir: Path, schemas: Dict[str, dict]) -> None:
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.schemas = schemas
        self.rng = random.Random(f"{self.name}:{seed}")
        self.counters: Dict[str, float] = Counter()
        self.properties: Dict[str, object] = {}

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def finish(self) -> Tuple[int, List[str]]:
        """Checks over the whole run: (number of checks, problems)."""
        return 0, []

    def cli(self, argv: List[str]) -> Tuple[int, str]:
        code, out = run_cli(self.pkg, argv)
        self.counters["stdout_bytes"] += len(out.encode())
        return code, out

    def load_json(self, result: Tuple[int, str], schema: str):
        """Parse a CLI result and validate it; returns (payload, problems)."""
        code, out = result
        if code != 0:
            return None, [f"exit code {code}"]
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return None, [f"not JSON: {exc}"]
        return payload, checks.schema_errors(payload, self.schemas[schema])


class MonteCarlo(Workload):
    """`sample --n 500 --pattern 21` over fresh seeds: the uniform sampler and
    the occurrence kernel on 1000-point matchings do all the work."""

    name = "mc_sample"
    N, SAMPLES = 500, 20

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.first_seed = self.rng.randrange(1, 2**31)
        self.pooled: Dict[int, Dict[int, int]] = {}
        self.properties = {"n": self.N, "samples_per_op": self.SAMPLES, "pattern": "21",
                           "cli_seeds": f"{self.first_seed} + op index"}

    def argv(self, seed: int, samples: int) -> List[str]:
        return ["sample", "--n", str(self.N), "--samples", str(samples), "--seed", str(seed),
                "--pattern", "21", "--format", "json"]

    def ops(self):
        for i in count():
            seed = self.first_seed + i
            yield Op("sample", self.SAMPLES, partial(self.cli, self.argv(seed, self.SAMPLES)),
                     partial(self.check, seed))

    def warm_up(self) -> None:
        self.cli(self.argv(self.first_seed - 1, 2))

    def check(self, seed: int, result) -> List[str]:
        payload, problems = self.load_json(result, "sample")
        if payload is None or problems:
            return problems
        expect = {"n": self.N, "samples": self.SAMPLES, "seed": seed, "pattern": "21"}
        problems += [f"{k} = {payload[k]!r}, expected {v!r}" for k, v in expect.items() if payload[k] != v]
        freqs = {int(k): v for k, v in payload["frequencies"].items()}
        if abs(sum(freqs.values()) - 1.0) > 1e-9:
            problems.append(f"frequencies sum to {sum(freqs.values())}")
        counts = {k: round(v * self.SAMPLES) for k, v in freqs.items()}
        if any(abs(v * self.SAMPLES - counts[k]) > 1e-6 for k, v in freqs.items()):
            problems.append("frequencies are not multiples of 1/samples")
        if abs(checks.tv_to_poisson_half(freqs) - payload["tv_distance_poisson_half"]) > 1e-9:
            problems.append("reported TV distance differs from the recomputed one")
        if not problems:
            self.pooled[seed] = counts
        return problems

    def finish(self):
        total: Counter = Counter()
        for counts in self.pooled.values():
            total.update(counts)
        samples = sum(total.values())
        if not samples:
            return 1, ["no sample passed its checks"]
        tv = checks.tv_to_poisson_half({k: c / samples for k, c in total.items()})
        floor = checks.poisson_tv_floor(samples, self.first_seed + 1)
        self.properties.update(pooled_samples=samples, pooled_tv=tv, tv_noise_floor=floor)
        return 1, [] if tv < floor else [f"pooled TV {tv:.4f} above noise floor {floor:.4f}"]


class Verify(Workload):
    """The README's `verify` over the eight default patterns, at max_n 5 so
    that one operation takes well under 0.1 s: the enumerator and the kernel
    on tiny windows do nearly all the work."""

    name = "exact_verify"
    MAX_N = 5

    def __init__(self, *args) -> None:
        super().__init__(*args)
        per_pattern = sum(checks.double_factorial(2 * n - 1) for n in range(1, self.MAX_N + 1))
        self.items = per_pattern * len(DEFAULT_PATTERNS)
        self.properties = {"max_n": self.MAX_N, "patterns": list(DEFAULT_PATTERNS),
                           "pattern_matching_pairs_per_op": self.items}

    def ops(self):
        while True:
            order = list(DEFAULT_PATTERNS)
            self.rng.shuffle(order)
            argv = ["verify", "--max-n", str(self.MAX_N)]
            for p in order:
                argv += ["--pattern", p]
            yield Op("verify", self.items, partial(self.cli, argv), partial(self.check, order))

    def warm_up(self) -> None:
        self.cli(["verify", "--max-n", "3", "--pattern", "21"])

    def check(self, order: List[str], result) -> List[str]:
        code, out = result
        lines = [f"{p} n={n}: ok" for p in order for n in range(1, self.MAX_N + 1)]
        if code != 0 or out != "\n".join(lines + ["all ok"]) + "\n":
            return [f"verify output differs from 'all ok' over {order}"]
        return []


def _all_partners(n: int) -> Iterator[List[int]]:
    """Every matching of size n: point 1 is paired with each other point in turn."""
    if n == 0:
        yield [0]
        return
    for j in range(2, 2 * n + 1):
        for sub in _all_partners(n - 1):
            rest = [q for q in range(1, 2 * n + 1) if q not in (1, j)]
            pt = [0] * (2 * n + 1)
            pt[1], pt[j] = j, 1
            for a in range(1, 2 * n - 1):
                pt[rest[a - 1]] = rest[sub[a] - 1]
            yield pt


def routes(pkg, n: int, rows: int, egf_n: int) -> Dict[str, object]:
    """The paper's other routes to the 21 table, and its limit laws at n = 1000."""
    t, a = pkg.tables, pkg.asymptotics
    return {
        "incl_excl": t.avoid21_incl_excl(n),
        "closed": t.a21_closed_form(n, 0),
        "row": [t.a21_closed_form(rows, k) for k in range(rows)],
        "egf": [t.egf_row_b(k, egf_n) for k in range(4)],
        "egf_closed": [[t.a21_closed_form(m + 1, k) for m in range(k, egf_n + 1)] for k in range(4)],
        "avoid_prob": a.avoidance_probability_21(1000),
        "ratios": [a.row_ratio_21(1000, k) for k in range(4)],
        "log_asym": a.log_asym_a21(1000, 0),
        "avoid1000": t.a21_closed_form(1000, 0),
    }


class ExactTables(Workload):
    """`enumerate --format json` for 21, 321 and 132, and the paper's other
    routes through their public functions: exact big-integer arithmetic in
    tables, series and asymptotics, with no enumeration at all."""

    name = "exact_tables"
    # max_n per pattern, sized so that one `enumerate` takes tens of milliseconds
    SIZES = {"21": 150, "321": 48, "132": 100}
    ROUTES = (175, 60, 40)  # n for inclusion-exclusion, closed-form row, EGF length
    ORACLE_N = 5

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.oracle: Dict[str, Dict[int, Counter]] = {}
        self.properties = {"max_n": self.SIZES, "routes_n_rows_egf": self.ROUTES,
                           "oracle_max_n": self.ORACLE_N}

    def enumerate_op(self, pattern: str, max_n: int) -> Op:
        argv = ["enumerate", "--pattern", pattern, "--max-n", str(max_n), "--format", "json"]
        cells = max_n * (max_n + 1) // 2  # (n, k) with 0 <= k < n <= max_n
        return Op("enumerate", cells, partial(self.cli, argv), partial(self.check_table, pattern, max_n),
                  work=f"enumerate {pattern}")

    def routes_op(self) -> Op:
        n, rows, egf_n = self.ROUTES
        values = rows + 4 * (egf_n + 1) + sum(egf_n + 1 - k for k in range(4)) + 9  # numbers computed
        return Op("routes", values, partial(routes, self.pkg, n, rows, egf_n),
                  partial(self.check_routes, n, rows, egf_n))

    def ops(self):
        # Exact arithmetic draws nothing at random: the seed orders the
        # operations within each round, starting with an `enumerate`.
        while True:
            order = list(self.SIZES)
            self.rng.shuffle(order)
            for pattern in order:
                yield self.enumerate_op(pattern, self.SIZES[pattern])
            yield self.routes_op()

    def warm_up(self) -> None:
        for pattern in self.SIZES:
            self.cli(["enumerate", "--pattern", pattern, "--max-n", "8", "--format", "json"])

    def brute(self, pattern: str) -> Dict[int, Counter]:
        if pattern not in self.oracle:
            perm = [int(ch) for ch in pattern]
            self.oracle[pattern] = {
                n: Counter(checks.count_pattern(pt, perm) for pt in _all_partners(n))
                for n in range(1, self.ORACLE_N + 1)
            }
        return self.oracle[pattern]

    def check_table(self, pattern: str, max_n: int, result) -> List[str]:
        payload, problems = self.load_json(result, "enumerate")
        if payload is None or problems:
            return problems
        if payload["pattern"] != pattern:
            return [f"pattern {payload['pattern']!r}, expected {pattern!r}"]
        rows: Dict[int, Dict[int, int]] = {n: {} for n in range(1, max_n + 1)}
        for n, k, v in payload["entries"]:
            if n not in rows or not 0 <= k < n:
                return [f"entry ({n}, {k}) out of range"]
            rows[n][k] = int(v)
        for n, row in rows.items():
            if sum(row.values()) != checks.double_factorial(2 * n - 1):
                problems.append(f"row n={n} does not sum to (2n-1)!!")
        for n, expected in self.brute(pattern).items():
            if rows[n] != {k: v for k, v in expected.items() if v}:
                problems.append(f"row n={n} differs from brute force")
        self.counters["entries"] += len(payload["entries"])
        self.counters["digits"] += sum(len(v) for _, _, v in payload["entries"])
        return problems

    def check_routes(self, n: int, rows: int, egf_n: int, r) -> List[str]:
        problems = []
        if r["incl_excl"] != r["closed"]:
            problems.append(f"inclusion-exclusion and closed form differ at n={n}")
        if sum(r["row"]) != checks.double_factorial(2 * rows - 1):
            problems.append(f"closed-form row n={rows} does not sum to (2n-1)!!")
        for k in range(4):
            scaled = [c * math.factorial(m) for m, c in enumerate(r["egf"][k])][k:]
            if scaled != r["egf_closed"][k]:
                problems.append(f"EGF row k={k} differs from the closed form")
        if abs(r["avoid_prob"] - math.exp(-0.5)) > 0.005:
            problems.append("avoidance probability at n=1000 is not near exp(-1/2)")
        if any(abs(x / (2 * (k + 1)) - 1) > 0.02 for k, x in enumerate(r["ratios"])):
            problems.append("row ratios at n=1000 are not near 2(k+1)")
        if abs(math.log(r["avoid1000"]) - r["log_asym"]) > 0.01:
            problems.append("asymptotic estimate at n=1000 is off by more than 1%")
        return problems


class CorpusCensus(Workload):
    """`corpus analyze|scatter|brackets` on shards of a generated corpus in
    TSV and JSONL: load, parse, to_matching, collapse_shape and 16 kernel
    calls per record; the quadratic validate and serialize are never called.
    Every other round of shards ends with `corpus brackets` on one large
    file, so that the memory of loading a whole corpus shows in the peak."""

    name = "corpus_census"
    SHARDS = 12
    BIG_COPIES = 30  # copies of the 12 shards in the large file, with fresh ids
    RECOUNT = 3  # records recounted per analyze operation
    ACTIONS = (("analyze", "tsv"), ("scatter", "jsonl"), ("brackets", "tsv"),
               ("analyze", "jsonl"), ("scatter", "tsv"), ("brackets", "jsonl"))

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.shards: List[List[inputs.Record]] = []
        self.files: List[Dict[str, Path]] = []
        directory = self.workdir / self.name
        directory.mkdir(parents=True, exist_ok=True)
        for shard in range(self.SHARDS):
            records = inputs.corpus_shard(self.rng, shard)
            tsv, jsonl = inputs.write_shard(records, directory, shard)
            self.shards.append(records)
            self.files.append({"tsv": tsv, "jsonl": jsonl})
        self.expected: Dict[Tuple[str, int], object] = {}
        self.records = records = [r for shard in self.shards for r in shard]
        self.big = inputs.write_copies(records, directory / "big.tsv", self.BIG_COPIES)
        self.properties = {
            "shards": self.SHARDS, "records": len(records), "formats": ["tsv", "jsonl"],
            "big_file": {"records": len(records) * self.BIG_COPIES, "bytes": self.big.stat().st_size},
            "kinds": dict(Counter(r.kind for r in records)),
            "pairs_histogram": dict(Counter(
                "malformed" if not r.pairs else "<50" if len(r.pairs) < 50 else "50-149"
                if len(r.pairs) < 150 else ">=150" for r in records)),
            "bracket_types": dict(Counter(checks.bracket_types(r.text) for r in records)),
            "planted_failures": sum(r.kind == "malformed" for r in records),
        }

    def argv(self, action: str, shard: int, fmt: str) -> List[str]:
        return ["corpus", action, "--input", str(self.files[shard][fmt]),
                "--corpus-format", fmt, "--format", "json"]

    def ops(self):
        per_round = len(self.ACTIONS) * self.SHARDS
        for i in count():
            action, fmt = self.ACTIONS[i % len(self.ACTIONS)]
            shard = (i // len(self.ACTIONS)) % self.SHARDS
            check = getattr(self, f"check_{action}")
            yield Op(action, len(self.shards[shard]), partial(self.cli, self.argv(action, shard, fmt)),
                     partial(check, shard), work=f"{action} {fmt}")
            if i % (2 * per_round) == per_round - 1:
                argv = ["corpus", "brackets", "--input", str(self.big), "--corpus-format", "tsv",
                        "--format", "json"]
                yield Op("brackets", self.BIG_COPIES * len(self.records), partial(self.cli, argv),
                         self.check_big, work="brackets big")

    def warm_up(self) -> None:
        for action, fmt in self.ACTIONS[:3]:
            self.cli(self.argv(action, 0, fmt))

    def counts_of(self, record: inputs.Record) -> Dict[str, Tuple[int, int]]:
        key = ("counts", record.id)
        if key not in self.expected:
            pt = checks.partners(record.pairs)
            shape = checks.collapse(pt)
            self.expected[key] = {
                p: (checks.count_pattern(pt, [int(ch) for ch in p]),
                    checks.count_pattern(shape, [int(ch) for ch in p]))
                for p in DEFAULT_PATTERNS
            }
        return self.expected[key]

    def check_analyze(self, shard: int, result) -> List[str]:
        payload, problems = self.load_json(result, "corpus_analyze")
        if payload is None or problems:
            return problems
        records = self.shards[shard]
        totals = payload.pop("_totals")
        if totals["records"] != len(records):
            problems.append(f"{totals['records']} records, generated {len(records)}")
        planted = [r.id for r in records if r.kind == "malformed"]
        if [f[0] for f in totals["parse_failures"]] != planted:
            problems.append("parse failures differ from the planted malformed records")
        if sorted(payload) != sorted(DEFAULT_PATTERNS):
            return problems + ["census patterns differ from the defaults"]
        for record in self.rng.sample([r for r in records if r.pairs], self.RECOUNT):
            for p, (secondary, shape) in self.counts_of(record).items():
                for kind, want in (("secondary", secondary), ("shape", shape)):
                    census = payload[p][kind]
                    if census["counts"].get(record.id, 0) != want or (record.id in census["ids"]) != (want > 0):
                        problems.append(f"{record.id} {p} [{kind}] differs from the recount {want}")
        return problems

    def check_scatter(self, shard: int, result) -> List[str]:
        payload, problems = self.load_json(result, "corpus_scatter")
        if payload is None or problems:
            return problems
        key = ("scatter", shard)
        if key not in self.expected:
            rows = []
            for r in self.shards[shard]:
                if r.pairs:
                    pt = checks.partners(r.pairs)
                    c21, c321 = checks.count_pattern(pt, [2, 1]), checks.count_pattern(pt, [3, 2, 1])
                    if c21 or c321:
                        rows.append([r.id, len(r.pairs), c21, c321])
            self.expected[key] = rows
        return [] if payload["rows"] == self.expected[key] else ["scatter rows differ from the recount"]

    def check_brackets(self, shard: int, result) -> List[str]:
        payload, problems = self.load_json(result, "corpus_brackets")
        if payload is None or problems:
            return problems
        expected: Dict[str, List[str]] = {}
        for r in self.shards[shard]:
            expected.setdefault(str(checks.bracket_types(r.text)), []).append(r.id)
        return [] if payload == expected else ["bracket-type groups differ from the recount"]

    def check_big(self, result) -> List[str]:
        payload, problems = self.load_json(result, "corpus_brackets")
        if payload is None or problems:
            return problems
        records = self.records
        types = {r.id: str(checks.bracket_types(r.text)) for r in records}
        if sorted(payload) != sorted(set(types.values())):
            return ["bracket-type groups of the large file differ from the recount"]
        for key, ids in payload.items():
            expected = (f"{r.id}.{c}" for c in range(self.BIG_COPIES) for r in records if types[r.id] == key)
            if any(a != b for a, b in zip_longest(ids, expected)):
                return [f"ids with {key} bracket types in the large file differ from the recount"]
        return []


def round_trip(pkg, text: str) -> Dict[str, object]:
    """One structure through the structure layer: parse, serialize,
    to_matching, collapse_shape and a 21 count."""
    st = pkg.structure
    parsed = st.parse_dotbracket(text)
    matching = st.to_matching(parsed)
    return {
        "serialized": st.serialize_dotbracket(parsed),
        "matching": matching.partner_map,
        "shape": st.collapse_shape(matching).partner_map,
        "count21": pkg.patterns.count_occurrences(matching, pkg.patterns.EndheredPattern((2, 1))),
    }


class StructureRRNA(Workload):
    """Pseudoknotted structures of 300-500 pairs, about the size of a 16S
    rRNA, each through the `validate` command and then through parse,
    serialize, to_matching, collapse_shape and a 21 count: the quadratic
    validate and serialize dominate."""

    name = "structure_rrna"
    SIZES = (300, 400, 500)
    COUNT = 24

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.structures = [
            inputs.structure(self.rng, self.SIZES[i % len(self.SIZES)], self.rng.randint(2, 4),
                             helices=self.SIZES[i % len(self.SIZES)] // 100)
            for i in range(self.COUNT)
        ]
        self.small = inputs.structure(self.rng, 100, 3, helices=2)
        self.expected: Dict[int, Tuple[int, List[int], List[int], int]] = {}
        self.properties = {
            "structures": self.COUNT,
            "pairs": [len(s.pairs) for s in self.structures],
            "bracket_types": dict(Counter(s.types_used for s in self.structures)),
        }

    def finish(self):
        self.properties["crossings"] = [self.recount(j)[0] for j in range(self.COUNT)]
        return 0, []

    def recount(self, j: int) -> Tuple[int, List[int], List[int], int]:
        """Crossings, matching, shape and 21 count of structure j; a shift
        changes none of them."""
        if j not in self.expected:
            pairs = self.structures[j].pairs
            pt = checks.partners(pairs)
            self.expected[j] = (checks.crossing_count(pairs), pt, checks.collapse(pt),
                                checks.count_pattern(pt, [2, 1]))
        return self.expected[j]

    @staticmethod
    def validate_argv(s: inputs.Structure) -> List[str]:
        return ["validate", "--dotbracket", s.text, "--format", "json"]

    def ops(self):
        # Each round shifts the structures by one more leading unpaired base,
        # so that no operation repeats an earlier input but the work stays
        # the same.  A structure's two steps are separate operations, as
        # shorter operations give steadier fastest times.
        for i in count():
            j = i % self.COUNT
            s = inputs.shifted(self.structures[j], 1 + i // self.COUNT)
            size = self.SIZES[j % len(self.SIZES)]
            yield Op("validate", len(s.pairs), partial(self.cli, self.validate_argv(s)),
                     partial(self.check_validate, j, s), work=f"validate ~{size} pairs")
            yield Op("round_trip", len(s.pairs), partial(round_trip, self.pkg, s.text),
                     partial(self.check_round_trip, j, s), work=f"round trip ~{size} pairs")

    def warm_up(self) -> None:
        self.cli(self.validate_argv(self.small))
        round_trip(self.pkg, self.small.text)

    def check_validate(self, j: int, s: inputs.Structure, result) -> List[str]:
        payload, problems = self.load_json(result, "validate")
        if payload is None or problems:
            return problems
        crossings = payload["pseudoknot_violations"]
        if payload["theta"] != 3 or payload["monogamy_violations"]:
            problems.append("wrong theta or spurious monogamy violations")
        if payload["distance_violations"] != checks.distance_violations(s.pairs, 3):
            problems.append("distance violations differ from the recount")
        if len(crossings) != self.recount(j)[0] or payload["ok"] != (not crossings and not payload["distance_violations"]):
            problems.append("crossing count differs from the sort-based count")
        if any(not (a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]) for a, b in crossings):
            problems.append("a reported pseudoknot violation does not cross")
        return problems

    def check_round_trip(self, j: int, s: inputs.Structure, r) -> List[str]:
        problems = []
        _, pt, shape, count21 = self.recount(j)
        try:
            if checks.parse_pairs(r["serialized"]) != list(s.pairs):
                problems.append("parse(serialize(s)) != s")
        except ValueError as exc:
            problems.append(f"serialized text does not parse: {exc}")
        if list(r["matching"]) != pt:
            problems.append("to_matching differs from the renumbered pairs")
        if list(r["shape"]) != shape:
            problems.append("collapsed shape differs from the recount")
        if r["count21"] != count21:
            problems.append("21 count differs from the recount")
        return problems


WORKLOADS = {cls.name: cls for cls in (MonteCarlo, Verify, ExactTables, CorpusCensus, StructureRRNA)}
