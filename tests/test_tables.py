import json
import math
import sys
import time
from itertools import permutations

import pytest

from endhered import tables
from endhered import (
    DistributionTable,
    EndheredError,
    EndheredPattern,
    a21_closed_form,
    avoid21,
    avoid21_incl_excl,
    distributions_bruteforce,
    double_factorial,
    egf_row_b,
    row1_21,
    table_a21,
    table_c321,
    table_d132,
    table_for_pattern,
)


class TestDoubleFactorial:
    def test_13(self):
        assert double_factorial(13) == 135135

    def test_matching_counts(self):
        assert [double_factorial(2 * n - 1) for n in range(0, 7)] == [
            1, 1, 3, 15, 105, 945, 10395,
        ]

    def test_even_and_edge_cases(self):
        assert double_factorial(0) == 1
        assert double_factorial(-1) == 1
        assert double_factorial(8) == 8 * 6 * 4 * 2

    def test_negative_rejected(self):
        with pytest.raises(EndheredError):
            double_factorial(-3)


class TestTableA21:
    def test_anchors(self):
        t = table_a21(9)
        assert t[4, 0] == 68
        assert t[4, 1] == 30
        assert t[9, 0] == 21505552
        assert t[9, 2] == 2381344

    def test_diagonal_ones(self):
        t = table_a21(9)
        for n in range(1, 10):
            assert t[n, n - 1] == 1

    def test_row_sums(self):
        t = table_a21(9)
        for n in range(1, 10):
            assert sum(t.column(n).values()) == double_factorial(2 * n - 1)


class TestAvoid21:
    def test_values(self):
        assert avoid21(1) == 1
        assert avoid21(3) == 10
        assert avoid21(8) == 1269680

    def test_inclusion_exclusion_values(self):
        assert avoid21_incl_excl(2) == 2
        assert avoid21_incl_excl(3) == 10

    def test_routes_agree(self):
        for n in range(1, 31):
            assert avoid21(n) == avoid21_incl_excl(n)


class TestClosedForm:
    def test_anchors(self):
        assert a21_closed_form(5, 1) == 272
        assert a21_closed_form(9, 4) == 42280

    def test_k0_is_zeroth_row(self):
        for n in range(1, 20):
            assert a21_closed_form(n, 0) == avoid21(n)

    def test_domain(self):
        with pytest.raises(EndheredError):
            a21_closed_form(3, 3)

    def test_matches_recurrence_table(self):
        t = table_a21(9)
        for n in range(1, 10):
            for k in range(0, n):
                assert a21_closed_form(n, k) == t[n, k]


class TestRow1:
    def test_anchors(self):
        assert row1_21(4) == 30
        assert row1_21(9) == 10157440

    def test_agrees_with_closed_form(self):
        for n in range(2, 31):
            assert row1_21(n) == a21_closed_form(n, 1)


class TestEgf:
    def test_k0_values(self):
        row = egf_row_b(0, 5)
        assert row[0] * math.factorial(0) == 1
        assert row[2] * math.factorial(2) == 10

    def test_k1_value(self):
        row = egf_row_b(1, 5)
        assert row[3] * math.factorial(3) == 30

    def test_matches_table(self):
        t = table_a21(10)
        for k in range(0, 4):
            row = egf_row_b(k, 9)
            for n in range(0, 10):
                b_nk = row[n] * math.factorial(n)
                assert b_nk.denominator == 1
                assert int(b_nk) == t[n + 1, k]


class TestTableC321:
    def test_anchors(self):
        t = table_c321(9)
        assert t[6, 0] == 10022
        assert t[6, 1] == 332
        assert t[9, 3] == 4752
        assert t[3, 1] == 1

    def test_row_sums(self):
        t = table_c321(9)
        for n in range(1, 10):
            assert sum(t.column(n).values()) == double_factorial(2 * n - 1)


class TestTableD132:
    def test_anchors(self):
        t = table_d132(9)
        assert t[3, 0] == 14
        assert t[3, 1] == 1
        assert t[6, 2] == 3
        assert t[9, 3] == 15

    def test_support(self):
        # an occurrence occupies 3 disjoint arcs, so k > n/3 is impossible
        t = table_d132(12)
        for (n, k), v in t.entries.items():
            assert 3 * k <= n or v == 0

    def test_row_sums(self):
        t = table_d132(9)
        for n in range(1, 10):
            assert sum(t.column(n).values()) == double_factorial(2 * n - 1)


class TestTableForPattern:
    def test_routing(self):
        assert table_for_pattern("12", 5).entries == table_a21(5).entries
        assert table_for_pattern("123", 5).entries == table_c321(5).entries
        assert table_for_pattern("213", 5).entries == table_d132(5).entries

    def test_unknown_pattern(self):
        # any permutation has a table; strings that are not one are errors
        t = table_for_pattern("4321", 5)
        pat = EndheredPattern.from_string("4321")
        for n in range(1, 6):
            assert t.column(n) == distributions_bruteforce(n, [pat])[0]
        for text in ("4331", "12a", "1,,2"):
            with pytest.raises(EndheredError):
                table_for_pattern(text, 5)

    def test_label_is_the_string_given(self):
        assert table_for_pattern("213", 3).pattern == "213"
        assert table_for_pattern("1,3,2", 3).pattern == "1,3,2"

    def test_max_n_must_be_positive(self):
        with pytest.raises(EndheredError, match="max_n must be positive"):
            table_for_pattern("321", 0)


class TestDigitLimit:
    @pytest.mark.parametrize("fmt", ["to_text", "to_csv", "to_json"])
    def test_exact_at_the_limit(self, monkeypatch, fmt):
        # pattern 1 has the one entry (2n-1)!! per row: 10395 at n = 6 has
        # five digits, 135135 at n = 7 has six
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5, raising=False)
        getattr(table_for_pattern("1", 6), fmt)()
        with pytest.raises(EndheredError, match=r"n=7, k=7 has more than 5 digits"):
            getattr(table_for_pattern("1", 7), fmt)()

    def test_zero_means_no_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        assert table_for_pattern("1", 7).to_json().endswith('[7, 7, "135135"]]}')

    def test_below_the_bound_entries_are_not_read(self, monkeypatch):
        # (2*150-1)!! has 307 digits: far below the limit, no entry is looked at
        t = table_for_pattern("21", 150)
        monkeypatch.setattr(t, "entries", {}.fromkeys(t.entries, None))
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        t._check_digits()


def _all_patterns(p):
    return [EndheredPattern(perm) for perm in permutations(range(1, p + 1))]


class TestEngine:
    """The cluster-method engine behind `table_for_pattern`, against the
    brute-force census and the paper's own routes."""

    def test_matches_census(self):
        # sizes 1-4 to n = 7 and size 5 to n = 6, one census per n
        small = [pat for p in range(1, 5) for pat in _all_patterns(p)]
        five = _all_patterns(5)
        tables_by_pat = {pat: table_for_pattern(str(pat), 7) for pat in small + five}
        for n in range(1, 8):
            pats = small + five if n <= 6 else small
            for pat, dist in zip(pats, distributions_bruteforce(n, pats)):
                assert tables_by_pat[pat].column(n) == dist, (str(pat), n)

    @pytest.mark.parametrize(
        "route, patterns",
        [
            (table_a21, ["21", "12"]),
            (table_c321, ["321", "123"]),
            (table_d132, ["132", "213", "231", "312"]),
        ],
    )
    def test_matches_paper_routes(self, route, patterns):
        expected = route(100).entries
        for name in patterns:
            assert table_for_pattern(name, 100).entries == expected, name

    def test_scale_321_to_200(self):
        start = time.perf_counter()
        t = table_for_pattern("321", 200)
        assert time.perf_counter() - start < 1.0
        for n in range(1, 201):
            assert sum(t.column(n).values()) == double_factorial(2 * n - 1)

    def test_shifts_of_both_signs_rejected(self, monkeypatch):
        monkeypatch.setattr(tables, "_self_overlaps", lambda sigma: {1: 1, 2: -2})
        with pytest.raises(EndheredError, match="4321"):
            table_for_pattern("4321", 5)


class TestExports:
    def test_csv_header_and_decimal(self):
        csv_text = table_a21(3).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,k,count"
        assert "3,0,10" in lines

    def test_json_counts_are_strings(self):
        payload = json.loads(table_a21(9).to_json())
        assert payload["pattern"] == "21"
        entries = {(n, k): v for n, k, v in payload["entries"]}
        assert entries[9, 0] == "21505552"
        assert all(isinstance(v, str) for v in entries.values())

    def test_text_layout(self):
        text = table_a21(3).to_text()
        rows = text.split("\n")
        assert rows[0].split() == ["k\\n", "1", "2", "3"]
        assert rows[1].split() == ["0", "1", "2", "10"]


def test_distribution_table_row_and_getitem():
    t = DistributionTable(3, {(1, 0): 1, (2, 0): 2, (2, 1): 1, (3, 0): 10, (3, 1): 4, (3, 2): 1}, "21")
    assert t.row(1) == [0, 1, 4]
    assert t[3, 7] == 0
    assert t.max_k() == 2
