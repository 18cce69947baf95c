"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  On a 2-core x86-64 VM with Python 3.11 the whole suite takes 30-40 s,
of which criterion 7 (100k Monte Carlo samples of size 500) reports 17-29 s
against its 60 s bound and criterion 2 (brute force to n = 7) 6-8 s.
"""

import math
import time
from importlib.resources import files

import pytest

from endhered import (
    EndheredPattern,
    analyze,
    avoid21,
    avoid21_incl_excl,
    a21_closed_form,
    collapse_shape,
    count_occurrences,
    distribution_bruteforce,
    double_factorial,
    egf_row_b,
    enumerate_matchings,
    joint_distribution_bruteforce,
    left_twist,
    load_corpus,
    log_asym_a21,
    monte_carlo_distribution,
    parse_dotbracket,
    right_twist,
    row1_21,
    structure_to_shape_text,
    table_a21,
    table_c321,
    table_d132,
    table_for_pattern,
    to_matching,
    total_variation_to_poisson_half,
    wilf_classes,
)

P = EndheredPattern.from_string

PAPER_CORPUS = str(files("endhered.data") / "paper_structures.tsv")

# Printed distribution tables, frozen verbatim; columns are n = 1..9.
TABLE1_21 = [
    [1, 2, 10, 68, 604, 6584, 85048, 1269680, 21505552],
    [0, 1, 4, 30, 272, 3020, 39504, 595336, 10157440],
    [0, 0, 1, 6, 60, 680, 9060, 138264, 2381344],
    [0, 0, 0, 1, 8, 100, 1360, 21140, 368704],
    [0, 0, 0, 0, 1, 10, 150, 2380, 42280],
    [0, 0, 0, 0, 0, 1, 12, 210, 3808],
    [0, 0, 0, 0, 0, 0, 1, 14, 280],
    [0, 0, 0, 0, 0, 0, 0, 1, 16],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]
TABLE2_321 = [
    [1, 3, 14, 100, 906, 10022, 130864, 1969884, 33583700],
    [0, 0, 1, 4, 34, 332, 3866, 52400, 811248],
    [0, 0, 0, 1, 4, 36, 362, 4304, 59256],
    [0, 0, 0, 0, 1, 4, 38, 392, 4752],
    [0, 0, 0, 0, 0, 1, 4, 40, 422],
    [0, 0, 0, 0, 0, 0, 1, 4, 42],
    [0, 0, 0, 0, 0, 0, 0, 1, 4],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]
TABLE3_132 = [
    [1, 3, 14, 99, 900, 9978, 130455, 1965285, 33522915],
    [0, 0, 1, 6, 45, 414, 4635, 61110, 927090],
    [0, 0, 0, 0, 0, 3, 45, 630, 9405],
    [0, 0, 0, 0, 0, 0, 0, 0, 15],
]

ALL_PATTERNS = ("21", "12", "123", "321", "132", "213", "231", "312")


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    tables = [(table_a21(9), TABLE1_21), (table_c321(9), TABLE2_321), (table_d132(9), TABLE3_132)]
    ok = all(
        table[n, k] == expected[k][n - 1]
        for table, expected in tables
        for k in range(len(expected))
        for n in range(1, 10)
    )
    elapsed = time.perf_counter() - start
    report("1 (exact table reproduction)", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for name in ALL_PATTERNS:
        pat = P(name)
        table = table_for_pattern(name, 7)
        for n in range(1, 8):
            brute = {k: v for k, v in distribution_bruteforce(n, pat).items() if v}
            ok &= brute == table.column(n)
    elapsed = time.perf_counter() - start
    report("2 (brute force equals formula tables, n <= 7)", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_3_cross_route_consistency():
    ok = True
    a = table_a21(30)
    b0 = egf_row_b(0, 29)
    for n in range(1, 31):
        zeroth = avoid21(n)
        ok &= zeroth == avoid21_incl_excl(n)
        ok &= zeroth == a21_closed_form(n, 0)
        ok &= zeroth == a[n, 0]
        ok &= b0[n - 1] * math.factorial(n - 1) == zeroth
        if n > 1:
            ok &= row1_21(n) == a21_closed_form(n, 1)
    report("3 (cross-route consistency, n <= 30)", ok)


def test_criterion_4_twist_laws():
    ok = True
    for n in range(0, 7):
        for m in enumerate_matchings(n):
            ok &= left_twist(left_twist(m)) == m
            ok &= right_twist(right_twist(m)) == m
    for n in range(1, 7):
        joint = joint_distribution_bruteforce(n, P("21"), P("12"))
        for (k, m), v in joint.items():
            ok &= joint.get((m, k), 0) == v
    report("4 (twist involutions and symmetric joint distribution)", ok)


def test_criterion_5_wilf_classes():
    classes = [frozenset(str(p) for p in cls) for cls in wilf_classes(3, 7)]
    ok = set(classes) == {
        frozenset({"123", "321"}),
        frozenset({"132", "213", "231", "312"}),
    }
    report("5 (Wilf classes of size-3 patterns)", ok)


def test_criterion_6_poisson_limit():
    start = time.perf_counter()
    from fractions import Fraction

    prob = float(Fraction(avoid21(1000), double_factorial(1999)))
    ok = abs(prob - math.exp(-0.5)) < 0.005
    for k in range(4):
        ratio = float(Fraction(a21_closed_form(1000, k), a21_closed_form(1000, k + 1)))
        ok &= abs(ratio / (2 * (k + 1)) - 1) < 0.02
    elapsed = time.perf_counter() - start
    report("6 (Poisson(1/2) limit at n = 1000)", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    freqs = monte_carlo_distribution(500, P("21"), 100_000, seed=20240829)
    tv = total_variation_to_poisson_half(freqs)
    elapsed = time.perf_counter() - start
    small_a = monte_carlo_distribution(500, P("21"), 2000, seed=7)
    small_b = monte_carlo_distribution(500, P("21"), 2000, seed=7)
    ok = tv < 0.05 and small_a == small_b and elapsed < 60.0
    report("7 (Monte Carlo vs Poisson(1/2))", ok, f"tv={tv:.4f}, {elapsed:.1f}s")


def test_criterion_8_asymptotic_formula():
    def ratio(n):
        return math.exp(math.log(avoid21(n)) - log_asym_a21(n, 0))

    r1000, r100 = ratio(1000), ratio(100)
    ok = 0.99 <= r1000 <= 1.01 and abs(r1000 - 1) < abs(r100 - 1)
    report("8 (asymptotic estimate accuracy)", ok, f"ratio(1000)={r1000:.4f}")


def test_criterion_9_shape_pipeline():
    ok = structure_to_shape_text("..(((.((..(((....))).(((.....))))))))..") == "(()())"
    pat21 = P("21")
    for n in range(0, 7):
        for m in enumerate_matchings(n):
            ok &= count_occurrences(collapse_shape(m), pat21) == 0
    for record in load_corpus(PAPER_CORPUS, "tsv"):
        shape = collapse_shape(to_matching(parse_dotbracket(record.structure)))
        ok &= count_occurrences(shape, pat21) == 0
    report("9 (shape collapse removes every 21 occurrence)", ok)


def test_criterion_10_corpus_facts():
    records = load_corpus(PAPER_CORPUS, "tsv")
    rep = analyze(records)
    sec = {p: set(k["secondary"].ids) for p, k in rep.per_pattern.items()}
    ok = (
        {"4M4O"} <= sec["12"] and "4M4O" in sec["231"]
        and "5U3G" in sec["12"] and "5U3G" in sec["312"]
        and "7K16_FR3D" in sec["132"]
        and rep.per_pattern["21"]["shape"].ids == []
    )
    report("10 (per-structure census facts)", ok)
