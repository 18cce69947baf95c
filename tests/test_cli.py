import hashlib
import json
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from endhered import double_factorial
from endhered.cli import build_parser, run
from endhered.corpus import DEFAULT_PATTERNS

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
CORPUS = str(files("endhered.data") / "paper_structures.tsv")

# 94 pairs in three bracket types: 194 crossings, 3 pairs closer than theta = 3
PSEUDOKNOTTED = (
    "{{{(((((.[[[[[...((.))))))).]]]]]((((((((...[[[[[.((.)))))))))).]]]]]((("
    "(..[[[.((...)))))).]]](((((((.[[[((.)))))))))..]]]....[[}}}((((((((.[[[."
    ".((..)))))))))).]]]((((((((.[[[...((...))))))))))..]]].(((((((..[[[[[[(("
    "...)))))))))....]]]]]]...]]"
)


# sha256 of `enumerate --pattern P --max-n 40 --format F` stdout, recorded
# from the class-specific builders the engine replaced
ENUMERATE_SHA256 = {
    "21": {
        "text": "87799532837c57737d7faff1bd07e1ff8e9b9bc129da3d5fe1c0c821fa120ff1",
        "csv": "8a93e93add56af801dced3a2807f7447d620a917cc59e6844ffeab65bfc820e0",
        "json": "aa1ba13b36b75627509f0d4dcb5c07f89665347d683c2c6c38cc01442dfe3303",
    },
    "12": {
        "text": "87799532837c57737d7faff1bd07e1ff8e9b9bc129da3d5fe1c0c821fa120ff1",
        "csv": "8a93e93add56af801dced3a2807f7447d620a917cc59e6844ffeab65bfc820e0",
        "json": "450774807bb0fcef44da40753d2028cf5b38cc9fec5ac6a18855f17557eeaec6",
    },
    "321": {
        "text": "fd95f2045d6a267f60dc0602a182c0121fb256624dd2acdc375d6f8dbcca6890",
        "csv": "a8e95ab7853e652d0238777434cba016a3f0d3c2b47566f041037b2b48e536c9",
        "json": "6cf06729b521785de2a4ab17434d4ac7ca1d4d395a2923353afa694ac86061ed",
    },
    "123": {
        "text": "fd95f2045d6a267f60dc0602a182c0121fb256624dd2acdc375d6f8dbcca6890",
        "csv": "a8e95ab7853e652d0238777434cba016a3f0d3c2b47566f041037b2b48e536c9",
        "json": "199d38cb80d24e415de82355634e60bd1d70fe290c5884868bf0dcb6b9e4f87d",
    },
    "132": {
        "text": "37464268a37902fd83276fae47cf24bed6782d63ed707ecd7037340c9b9341bf",
        "csv": "e129748935731c9550fd5b26899409c4452064663f86b1355e57ee46e1ad6e82",
        "json": "c574818678d33ce8e8b0488f94057c088b90dcc8cb6b59fcef09bc84573ea374",
    },
    "213": {
        "text": "37464268a37902fd83276fae47cf24bed6782d63ed707ecd7037340c9b9341bf",
        "csv": "e129748935731c9550fd5b26899409c4452064663f86b1355e57ee46e1ad6e82",
        "json": "49aca90bf7234da1855c8b797811617404bf783d044e2a5360983ce03d59c884",
    },
    "231": {
        "text": "37464268a37902fd83276fae47cf24bed6782d63ed707ecd7037340c9b9341bf",
        "csv": "e129748935731c9550fd5b26899409c4452064663f86b1355e57ee46e1ad6e82",
        "json": "3abd21f1d18865959e3e6f6fae93f7b455a845356dae119df632e3d960c5b34d",
    },
    "312": {
        "text": "37464268a37902fd83276fae47cf24bed6782d63ed707ecd7037340c9b9341bf",
        "csv": "e129748935731c9550fd5b26899409c4452064663f86b1355e57ee46e1ad6e82",
        "json": "25e616eb39ca6c555964c8f4cddb081a9b63b98b17f4e8e42fc508d548497be4",
    },
}


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def validate(schema_name, payload):
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


class TestEnumerate:
    def test_text_table1_anchor(self, capsys):
        status, out, _ = invoke(capsys, "enumerate", "--pattern", "21", "--max-n", "9")
        assert status == 0
        assert "21505552" in out

    def test_json_schema(self, capsys):
        status, out, _ = invoke(capsys, "enumerate", "--pattern", "132", "--max-n", "6", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        validate("enumerate", payload)
        assert ["6", "2", "3"] in [[str(n), str(k), v] for n, k, v in payload["entries"]]

    def test_csv(self, capsys):
        status, out, _ = invoke(capsys, "enumerate", "--format", "csv", "--max-n", "3")
        assert out.startswith("n,k,count\n")

    def test_unknown_pattern_is_domain_error(self, capsys):
        # any permutation has a table; strings that are not one are errors
        status, out, _ = invoke(capsys, "enumerate", "--pattern", "4321", "--max-n", "5", "--format", "json")
        assert status == 0
        entries = {(n, k): int(v) for n, k, v in json.loads(out)["entries"]}
        assert entries == {(n, 0): double_factorial(2 * n - 1) for n in range(1, 4)} | {
            (4, 0): 104, (4, 1): 1, (5, 0): 940, (5, 1): 4, (5, 2): 1,
        }
        for text in ("4331", "12a", "1,,2"):
            status, out, err = invoke(capsys, "enumerate", "--pattern", text)
            assert status == 1 and out == ""
            assert "error:" in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("pattern", list(ENUMERATE_SHA256))
    def test_output_pinned(self, capsys, pattern, fmt):
        status, out, _ = invoke(capsys, "enumerate", "--pattern", pattern, "--max-n", "40", "--format", fmt)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[pattern][fmt]

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs the interpreter's default 4300-digit limit",
    )
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_count_past_the_digit_limit_is_domain_error(self, capsys, fmt):
        # (2*1424-1)!! has 4301 digits
        status, out, err = invoke(capsys, "enumerate", "--pattern", "1", "--max-n", "1424", "--format", fmt)
        assert status == 1 and out == ""
        assert err == (
            "error: count at n=1424, k=1424 has more than 4300 digits, the interpreter's "
            "limit for integer-to-string conversion (sys.get_int_max_str_digits())\n"
        )

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs the interpreter's default 4300-digit limit",
    )
    def test_count_just_below_the_digit_limit_prints(self, capsys):
        # (2*1423-1)!! has 4298 digits
        status, out, _ = invoke(capsys, "enumerate", "--pattern", "1", "--max-n", "1423", "--format", "json")
        assert status == 0
        assert json.loads(out)["entries"][-1] == [1423, 1423, str(double_factorial(2845))]


class TestCount:
    def test_dotbracket(self, capsys):
        status, out, _ = invoke(capsys, "count", "--dotbracket", "((((....))))", "--pattern", "21")
        assert status == 0 and out.strip() == "3"

    def test_matching_input(self, capsys):
        status, out, _ = invoke(capsys, "count", "--matching", "1-6 2-5 3-4", "--pattern", "321")
        assert out.strip() == "1"

    def test_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "count", "--dotbracket", "(())", "--pattern", "21", "--format", "json")
        payload = json.loads(out)
        validate("count", payload)
        assert payload == {"pattern": "21", "count": 1}

    def test_mutually_exclusive_inputs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["count", "--pattern", "21", "--dotbracket", "()", "--matching", "1-2"])
        assert exc.value.code == 2


class TestTwist:
    def test_right(self, capsys):
        _, out, _ = invoke(capsys, "twist", "--side", "right", "--matching", "1-4 2-3")
        assert out.strip() == "1-3 2-4"

    def test_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "twist", "--side", "left", "--matching", "1-4 2-3", "--format", "json")
        validate("twist", json.loads(out))

    def test_usage_error_without_side(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["twist", "--matching", "1-2"])
        assert exc.value.code == 2


class TestCollapse:
    def test_paper_example(self, capsys):
        status, out, _ = invoke(
            capsys, "collapse", "--dotbracket", "..(((.((..(((....))).(((.....)))))))).."
        )
        assert status == 0 and out.strip() == "(()())"

    def test_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "collapse", "--matching", "1-6 2-5 3-4", "--format", "json")
        payload = json.loads(out)
        validate("collapse", payload)
        assert payload["shape"] == "()"
        assert payload["size"] == 1


class TestValidate:
    def test_ok(self, capsys):
        status, out, _ = invoke(capsys, "validate", "--dotbracket", "((((....))))")
        assert status == 0 and out.strip() == "ok (theta=3)"

    def test_distance_violation_text(self, capsys):
        status, out, _ = invoke(capsys, "validate", "--dotbracket", "(())")
        assert status == 0
        assert "distance" in out

    def test_pseudoknot_json_schema(self, capsys):
        _, out, _ = invoke(
            capsys, "validate", "--dotbracket", "([)]", "--theta", "0", "--format", "json"
        )
        payload = json.loads(out)
        validate("validate", payload)
        assert payload["ok"] is False
        assert payload["pseudoknot_violations"] == [[[1, 3], [2, 4]]]

    def test_bad_dotbracket_is_domain_error(self, capsys):
        status, _, err = invoke(capsys, "validate", "--dotbracket", "((")
        assert status == 1 and "error:" in err

    @pytest.mark.parametrize(
        "fmt, sha256",
        [
            ("text", "b5abd431315160aebf93489634274f75908b1bd5ca730c40ccc5df29de0708f3"),
            ("csv", "9a769d6b9e7b9f77f20f288462ec2dbdc00b98fcb9fc3e0d6a2a4fda1534567e"),
            ("json", "7f6f747cd139b00392c3b048b0f63503d161acc316ea587b08cd7a04b12d398a"),
        ],
    )
    def test_pseudoknotted_output_pinned(self, capsys, fmt, sha256):
        status, out, _ = invoke(capsys, "validate", "--dotbracket", PSEUDOKNOTTED, "--format", fmt)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestCorpus:
    def test_analyze_json_schema(self, capsys):
        status, out, _ = invoke(capsys, "corpus", "analyze", "--input", CORPUS, "--format", "json")
        assert status == 0
        payload = json.loads(out)
        validate("corpus_analyze", payload)
        assert "4M4O" in payload["231"]["secondary"]["ids"]

    def test_scatter_csv_header(self, capsys):
        _, out, _ = invoke(capsys, "corpus", "scatter", "--input", CORPUS)
        assert out.splitlines()[0] == "id,size,count_21,count_321"

    def test_scatter_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "corpus", "scatter", "--input", CORPUS, "--format", "json")
        validate("corpus_scatter", json.loads(out))

    def test_brackets_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "corpus", "brackets", "--input", CORPUS, "--format", "json")
        payload = json.loads(out)
        validate("corpus_brackets", payload)
        assert "4M4O" in payload["2"]

    def test_missing_input_is_domain_error(self, capsys):
        status, _, err = invoke(capsys, "corpus", "analyze", "--input", "/nonexistent.tsv")
        assert status == 1 and "error:" in err

    @pytest.mark.parametrize("record", ['{"id": "b", "structure": null}', '{"id": 5, "structure": "()"}'])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_string_jsonl_field_is_domain_error(self, capsys, tmp_path, record, fmt):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "structure": "()"}\n' + record + "\n")
        status, out, err = invoke(
            capsys, "corpus", "brackets", "--input", str(path), "--corpus-format", "jsonl", "--format", fmt
        )
        assert status == 1 and out == ""
        assert f"{path}:2: bad JSONL record" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_jsonl_id_is_domain_error(self, capsys, tmp_path, fmt):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "structure": "()"}\n{"id": "", "structure": "(())"}\n')
        status, out, err = invoke(
            capsys, "corpus", "brackets", "--input", str(path), "--corpus-format", "jsonl", "--format", fmt
        )
        assert status == 1 and out == ""
        assert f"{path}:2: bad JSONL record: 'id' is empty" in err

    def test_repeated_pattern_counted_once(self, capsys, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\t(())\nb\t((()))\n")
        argv = ["corpus", "analyze", "--input", str(path)]
        _, once, _ = invoke(capsys, *argv, "--pattern", "21")
        _, twice, _ = invoke(capsys, *argv, "--pattern", "21", "--pattern", "2,1")
        assert once == twice == "records: 2\n21 [secondary]: 2 (a, b)\n21 [shape]: 0 (-)\n"
        _, out, _ = invoke(capsys, *argv, "--pattern", "21", "--pattern", "21", "--format", "json")
        assert json.loads(out)["21"]["secondary"]["ids"] == ["a", "b"]


class TestParserReuse:
    def test_verify_patterns_do_not_leak(self, capsys):
        invoke(capsys, "verify", "--max-n", "2", "--pattern", "21")
        status, out, _ = invoke(capsys, "verify", "--max-n", "2")
        assert status == 0
        reported = [line.split()[0] for line in out.splitlines()[:-1]]
        assert reported == [p for p in DEFAULT_PATTERNS for _ in range(2)]

    def test_corpus_patterns_do_not_leak(self, capsys):
        _, before, _ = invoke(capsys, "corpus", "analyze", "--input", CORPUS, "--format", "json")
        _, pinned, _ = invoke(capsys, "corpus", "analyze", "--input", CORPUS, "--format", "json",
                              "--pattern", "21")
        _, after, _ = invoke(capsys, "corpus", "analyze", "--input", CORPUS, "--format", "json")
        assert list(json.loads(pinned)) == ["21", "_totals"]
        assert list(json.loads(after)) == [*DEFAULT_PATTERNS, "_totals"]
        assert after == before

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()


class TestVerify:
    def test_small(self, capsys):
        status, out, _ = invoke(capsys, "verify", "--max-n", "4", "--pattern", "21", "--pattern", "132")
        assert status == 0
        assert "all ok" in out

    def test_json_schema(self, capsys):
        _, out, _ = invoke(capsys, "verify", "--max-n", "3", "--pattern", "12", "--format", "json")
        payload = json.loads(out)
        validate("verify", payload)
        assert payload["ok"] is True

    def test_shuffled_patterns_with_repeat_are_pattern_major(self, capsys):
        names = ["312", "21", "123", "21", "132"]
        argv = ["verify", "--max-n", "4"]
        for name in names:
            argv += ["--pattern", name]
        status, out, _ = invoke(capsys, *argv)
        lines = [f"{name} n={n}: ok" for name in names for n in range(1, 5)]
        assert status == 0
        assert out == "\n".join(lines + ["all ok"]) + "\n"

    def test_repeated_pattern_tabled_and_counted_once(self, capsys, monkeypatch):
        from endhered import cli, patterns

        tabled, censused = [], []
        real_table, real_census = cli.table_for_pattern, patterns._census

        def table_spy(pattern, max_n):
            tabled.append(pattern)
            return real_table(pattern, max_n)

        def census_spy(n, pats, allow_large):
            censused.append([str(pat) for pat in pats])
            return real_census(n, pats, allow_large)

        monkeypatch.setattr(cli, "table_for_pattern", table_spy)
        monkeypatch.setattr(patterns, "_census", census_spy)
        argv = ["verify", "--max-n", "3"]
        for name in ["21", "312", "21", "1,2", "12"]:
            argv += ["--pattern", name]
        status, out, _ = invoke(capsys, *argv)
        assert status == 0 and out.endswith("all ok\n")
        assert tabled == ["21", "312", "1,2"]
        assert censused == [["21", "312", "12"]] * 3

    def test_guard_checked_before_any_enumeration(self, capsys, monkeypatch):
        from endhered import patterns

        calls = []
        real = patterns._enumerate_partner_tuples

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(patterns, "BRUTEFORCE_MAX_N", 2)
        monkeypatch.setattr(patterns, "_enumerate_partner_tuples", spy)
        status, out, err = invoke(capsys, "verify", "--max-n", "3", "--pattern", "21")
        assert status == 1 and out == ""
        assert "exceeds the n <= 2 guard" in err
        assert calls == []


    def test_first_mismatch_named(self, capsys, monkeypatch):
        from endhered import cli

        real = cli.table_for_pattern

        def wrong_cells(pattern, max_n):
            # 132 is wrong at n = 3 for k = 1 and k = 2, 321 at n = 3 too
            table = real(pattern, max_n)
            if pattern in ("132", "321"):
                table.entries[3, 2] = 7
                table.entries[3, 1] += 1
            return table

        monkeypatch.setattr(cli, "table_for_pattern", wrong_cells)
        argv = ["verify", "--max-n", "4", "--pattern", "21", "--pattern", "132", "--pattern", "321"]
        status, out, _ = invoke(capsys, *argv)
        assert status == 1
        assert out.splitlines()[-2:] == [
            "first mismatch: 132 n=3 k=1 brute=1 formula=2",
            "MISMATCH FOUND",
        ]
        outs = {}
        for fmt in ("csv", "json"):
            status, outs[fmt], _ = invoke(capsys, *argv, "--format", fmt)
            assert status == 1
            assert "first mismatch" not in outs[fmt]
        assert "132,3,false" in outs["csv"].splitlines()
        assert json.loads(outs["json"])["ok"] is False


class TestSample:
    def test_json_schema(self, capsys):
        _, out, _ = invoke(
            capsys, "sample", "--n", "6", "--samples", "2000", "--seed", "7", "--format", "json"
        )
        payload = json.loads(out)
        validate("sample", payload)
        assert abs(sum(payload["frequencies"].values()) - 1.0) < 1e-9

    def test_deterministic_output(self, capsys):
        argv = ["sample", "--n", "5", "--samples", "1000", "--seed", "42", "--format", "json"]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second


class TestHarness:
    def test_usage_error_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_domain_errors_share_one_base(self):
        from endhered import (
            CorpusError,
            EndheredError,
            MatchingError,
            PatternError,
            StructureError,
        )

        for cls in (MatchingError, PatternError, StructureError, CorpusError):
            assert issubclass(cls, EndheredError)

    def test_bare_value_error_is_a_bug_not_exit_1(self, monkeypatch):
        from endhered import cli

        def broken(*args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "validate_waterman_ponty", broken)
        with pytest.raises(ValueError, match="bug"):
            run(["validate", "--dotbracket", "()"])

    def test_byte_identical_output(self, capsys):
        argv = ["enumerate", "--pattern", "321", "--max-n", "7", "--format", "json"]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second
