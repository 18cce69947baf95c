import hashlib
import json
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from endhered.cli import run

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
CORPUS = str(files("endhered.data") / "paper_structures.tsv")

# 94 pairs in three bracket types: 194 crossings, 3 pairs closer than theta = 3
PSEUDOKNOTTED = (
    "{{{(((((.[[[[[...((.))))))).]]]]]((((((((...[[[[[.((.)))))))))).]]]]]((("
    "(..[[[.((...)))))).]]](((((((.[[[((.)))))))))..]]]....[[}}}((((((((.[[[."
    ".((..)))))))))).]]]((((((((.[[[...((...))))))))))..]]].(((((((..[[[[[[(("
    "...)))))))))....]]]]]]...]]"
)


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
        status, _, err = invoke(capsys, "enumerate", "--pattern", "4321")
        assert status == 1
        assert "error:" in err


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

    def test_guard_checked_before_any_enumeration(self, capsys, monkeypatch):
        from endhered import patterns

        calls = []
        real = patterns.enumerate_matchings

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(patterns, "BRUTEFORCE_MAX_N", 2)
        monkeypatch.setattr(patterns, "enumerate_matchings", spy)
        status, out, err = invoke(capsys, "verify", "--max-n", "3", "--pattern", "21")
        assert status == 1 and out == ""
        assert "exceeds the n <= 2 guard" in err
        assert calls == []


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
