"""Command-line front end.

Subcommands: enumerate, count, twist, collapse, validate, corpus (analyze|scatter|
brackets), verify, sample.  Output goes to stdout and is byte-stable for
identical argv; diagnostics go to stderr.  Exit codes: 0 success, 1 domain
error (an EndheredError) or a verify mismatch, 2 usage error; any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__
from .asymptotics import poisson_half_pmf
from .corpus import (
    analyze,
    bracket_type_stats,
    load_corpus,
    scatter_csv,
    scatter_data,
)
from .matchings import (
    EndheredError,
    Matching,
    left_twist,
    parse_matching,
    right_twist,
    serialize_matching,
)
from .patterns import (
    EndheredPattern,
    check_guard,
    count_occurrences,
    distributions_bruteforce,
    monte_carlo_distribution,
    total_variation_to_poisson_half,
)
from .structure import (
    DEFAULT_ALPHABET,
    validate_waterman_ponty,
    SecondaryStructure,
    collapse_shape,
    matching_from_dotbracket,
    parse_dotbracket,
    serialize_dotbracket,
)
from .tables import table_for_pattern

def _matching_from_args(args) -> Matching:
    if args.matching is not None:
        return parse_matching(args.matching)
    return matching_from_dotbracket(args.dotbracket, DEFAULT_ALPHABET)


def _add_input_group(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matching", help='matching as "i-j i-j ..."')
    group.add_argument("--dotbracket", help="extended dot-bracket text")


def _add_format(parser: argparse.ArgumentParser, default: str = "text") -> None:
    parser.add_argument("--format", choices=["text", "csv", "json"], default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endhered",
        description="Endhered patterns in perfect matchings and RNA structures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="formula-based distribution tables")
    p.add_argument("--pattern", default="21")
    p.add_argument("--max-n", type=int, default=9)
    _add_format(p)

    p = sub.add_parser("count", help="pattern occurrences in one matching")
    p.add_argument("--pattern", required=True)
    _add_input_group(p)
    _add_format(p)

    p = sub.add_parser("twist", help="left or right endhered twist")
    p.add_argument("--side", choices=["left", "right"], required=True)
    _add_input_group(p)
    _add_format(p)

    p = sub.add_parser("collapse", help="reduce a structure to its shape")
    _add_input_group(p)
    _add_format(p)

    p = sub.add_parser("validate", help="check the secondary-structure conditions")
    p.add_argument("--dotbracket", required=True)
    p.add_argument("--theta", type=int, default=3, help="minimum pairing distance")
    _add_format(p)

    p = sub.add_parser("corpus", help="batch censuses over dot-bracket files")
    p.add_argument("action", choices=["analyze", "scatter", "brackets"])
    p.add_argument("--input", required=True)
    p.add_argument("--corpus-format", choices=["tsv", "jsonl"], default="tsv")
    p.add_argument("--pattern", action="append", dest="patterns", default=None)
    _add_format(p)

    p = sub.add_parser("verify", help="brute force vs formula cross-check")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--pattern", action="append", dest="patterns", default=None)
    p.add_argument("--allow-large", action="store_true")
    _add_format(p)

    p = sub.add_parser("sample", help="Monte Carlo check of the Poisson(1/2) limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", default="21")
    _add_format(p)

    return parser


def _cmd_enumerate(args) -> str:
    table = table_for_pattern(args.pattern, args.max_n)
    if args.format == "json":
        return table.to_json()
    if args.format == "csv":
        return table.to_csv().rstrip("\n")
    return table.to_text()


def _cmd_count(args) -> str:
    pat = EndheredPattern.from_string(args.pattern)
    k = count_occurrences(_matching_from_args(args), pat)
    if args.format == "json":
        return json.dumps({"pattern": str(pat), "count": k})
    if args.format == "csv":
        return f"pattern,count\n{pat},{k}"
    return str(k)


def _cmd_twist(args) -> str:
    twisted = (left_twist if args.side == "left" else right_twist)(
        _matching_from_args(args)
    )
    text = serialize_matching(twisted)
    if args.format == "json":
        return json.dumps({"side": args.side, "matching": text})
    if args.format == "csv":
        return f"matching\n{text}"
    return text


def _cmd_collapse(args) -> str:
    shape = collapse_shape(_matching_from_args(args))
    pairs = [(a.left, a.right) for a in shape.arcs()]
    db = serialize_dotbracket(
        SecondaryStructure(2 * shape.size, pairs), DEFAULT_ALPHABET
    )
    if args.format == "json":
        return json.dumps(
            {"shape": db, "matching": serialize_matching(shape), "size": shape.size}
        )
    if args.format == "csv":
        return f"shape\n{db}"
    return db


def _cmd_validate(args) -> str:
    report = validate_waterman_ponty(
        parse_dotbracket(args.dotbracket, DEFAULT_ALPHABET), args.theta
    )
    payload = {
        "theta": report.theta,
        "ok": report.ok,
        "monogamy_violations": [list(map(list, v)) for v in report.monogamy_violations],
        "distance_violations": [list(v) for v in report.distance_violations],
        "pseudoknot_violations": [list(map(list, v)) for v in report.pseudoknot_violations],
    }
    if args.format == "json":
        return json.dumps(payload)
    if args.format == "csv":
        lines = ["condition,pairs"]
        for kind in ("monogamy", "distance", "pseudoknot"):
            lines += [f"{kind},{v}" for v in payload[f"{kind}_violations"]]
        return "\n".join(lines)
    if report.ok:
        return f"ok (theta={report.theta})"
    lines = [f"violations (theta={report.theta}):"]
    for kind in ("monogamy", "distance", "pseudoknot"):
        for v in payload[f"{kind}_violations"]:
            lines.append(f"  {kind}: {v}")
    return "\n".join(lines)


def _cmd_corpus(args) -> str:
    records = load_corpus(args.input, args.corpus_format)
    if args.action == "scatter":
        rows = scatter_data(records)
        if args.format == "json":
            return json.dumps({"rows": [list(r) for r in rows]})
        return scatter_csv(rows).rstrip("\n")
    if args.action == "brackets":
        stats = bracket_type_stats(records)
        if args.format == "json":
            return json.dumps({str(k): ids for k, ids in stats.items()})
        if args.format == "csv":
            lines = ["types,id"]
            lines += [f"{k},{rid}" for k, ids in stats.items() for rid in ids]
            return "\n".join(lines)
        return "\n".join(f"{k}: {' '.join(ids)}" for k, ids in stats.items())
    patterns = (
        [EndheredPattern.from_string(p) for p in args.patterns]
        if args.patterns
        else None
    )
    report = analyze(records, patterns)
    if args.format == "json":
        return report.to_json()
    if args.format == "csv":
        lines = ["pattern,kind,id,count"]
        for pattern, kinds in report.per_pattern.items():
            for kind, census in kinds.items():
                lines += [f"{pattern},{kind},{rid},{census.counts[rid]}" for rid in census.ids]
        return "\n".join(lines)
    return report.to_text()


def _cmd_verify(args) -> Tuple[str, int]:
    from .corpus import DEFAULT_PATTERNS

    names = args.patterns or list(DEFAULT_PATTERNS)
    # a pattern given more than once (as "12" and "1,2", say) is tabled and
    # counted once; slots[k] is the place of names[k] among the distinct ones
    distinct: Dict[EndheredPattern, int] = {}
    slots, tables = [], []
    for name in names:
        i = distinct.setdefault(EndheredPattern.from_string(name), len(tables))
        if i == len(tables):
            tables.append(table_for_pattern(name, args.max_n))
        slots.append(i)
    # the tables reject max_n < 1; the guard is checked before any enumeration
    check_guard(args.max_n, args.allow_large)
    brute = [
        distributions_bruteforce(n, list(distinct), allow_large=args.allow_large)
        for n in range(1, args.max_n + 1)
    ]
    results, first_mismatch = [], None
    for name, i in zip(names, slots):
        for n, dists in enumerate(brute, start=1):
            got, want = dists[i], tables[i].column(n)
            results.append({"pattern": name, "n": n, "ok": got == want})
            if got != want and first_mismatch is None:
                k = min(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
                first_mismatch = (
                    f"first mismatch: {name} n={n} k={k} "
                    f"brute={got.get(k, 0)} formula={want.get(k, 0)}"
                )
    all_ok = first_mismatch is None
    status = 0 if all_ok else 1
    if args.format == "json":
        return json.dumps({"max_n": args.max_n, "ok": all_ok, "results": results}), status
    if args.format == "csv":
        lines = ["pattern,n,ok"]
        lines += [f"{r['pattern']},{r['n']},{str(r['ok']).lower()}" for r in results]
        return "\n".join(lines), status
    lines = [
        f"{r['pattern']} n={r['n']}: {'ok' if r['ok'] else 'MISMATCH'}" for r in results
    ]
    lines += ["all ok"] if all_ok else [first_mismatch, "MISMATCH FOUND"]
    return "\n".join(lines), status


def _cmd_sample(args) -> str:
    pat = EndheredPattern.from_string(args.pattern)
    freqs = monte_carlo_distribution(args.n, pat, args.samples, args.seed)
    tv = total_variation_to_poisson_half(freqs)
    if args.format == "json":
        return json.dumps(
            {
                "n": args.n,
                "samples": args.samples,
                "seed": args.seed,
                "pattern": str(pat),
                "frequencies": {str(k): v for k, v in freqs.items()},
                "tv_distance_poisson_half": tv,
            }
        )
    if args.format == "csv":
        lines = ["k,frequency,poisson_half"]
        lines += [f"{k},{v:.6f},{poisson_half_pmf(k):.6f}" for k, v in freqs.items()]
        return "\n".join(lines)
    lines = [f"{k}\t{v:.6f}\t(poisson {poisson_half_pmf(k):.6f})" for k, v in freqs.items()]
    lines.append(f"tv distance to Poisson(1/2): {tv:.6f}")
    return "\n".join(lines)


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "twist": _cmd_twist,
    "collapse": _cmd_collapse,
    "validate": _cmd_validate,
    "corpus": _cmd_corpus,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call and then reused:
    parsing keeps no state in the parser, and building it costs more than
    a small command."""
    return build_parser()


def run(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        output = _COMMANDS[args.subcommand](args)
    except EndheredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a command returns its stdout, or (stdout, exit code) if it can fail
    output, status = output if isinstance(output, tuple) else (output, 0)
    print(output)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
