import json
from importlib.resources import files

import pytest

from endhered import (
    CorpusError,
    CorpusRecord,
    EndheredPattern,
    analyze,
    bracket_type_stats,
    load_corpus,
    scatter_csv,
    scatter_data,
)

PAPER_CORPUS = files("endhered.data") / "paper_structures.tsv"


@pytest.fixture
def paper_records():
    return load_corpus(str(PAPER_CORPUS), "tsv")


class TestLoad:
    def test_tsv(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# comment\nA\t()\nB\t((..))\n")
        records = load_corpus(path, "tsv")
        assert [r.id for r in records] == ["A", "B"]
        assert records[1].structure == "((..))"

    def test_tool_column(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("A\t()\tdssr\n")
        assert load_corpus(path, "tsv")[0].tool == "dssr"

    def test_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A", "structure": "()", "tool": "fr3d"}\n{"id": "B", "structure": ".."}\n')
        records = load_corpus(path, "jsonl")
        assert records[0].tool == "fr3d"
        assert records[1].tool is None

    def test_malformed_tsv_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("A\t()\njustanid\n")
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(path, "tsv")

    def test_malformed_jsonl_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "A"}\n')
        with pytest.raises(CorpusError, match=":1"):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize(
        "record, field",
        [
            ('{"id": "b", "structure": null}', "'structure'"),
            ('{"id": 5, "structure": "()"}', "'id'"),
            ('{"id": ["b"], "structure": "()"}', "'id'"),
            ('{"id": "b", "structure": 12}', "'structure'"),
        ],
    )
    def test_non_string_jsonl_fields(self, tmp_path, record, field):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "structure": "()"}\n' + record + "\n")
        with pytest.raises(CorpusError, match=f":2: bad JSONL record: {field} must be a string"):
            load_corpus(path, "jsonl")

    def test_empty_jsonl_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "structure": "()"}\n{"id": "", "structure": "(())"}\n')
        with pytest.raises(CorpusError, match=":2: bad JSONL record: 'id' is empty"):
            load_corpus(path, "jsonl")

    def test_empty_tsv_id(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\t()\n\t(())\n")
        with pytest.raises(CorpusError, match=":2: expected"):
            load_corpus(path, "tsv")

    @pytest.mark.parametrize("record", ["[1, 2]", '"text"', "null"])
    def test_non_object_jsonl_record(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(record + "\n")
        with pytest.raises(CorpusError, match=":1: bad JSONL record"):
            load_corpus(path, "jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path / "nope.tsv", "tsv")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("A\t()\n")
        with pytest.raises(CorpusError, match="format"):
            load_corpus(path, "csv")

    def test_duplicate_ids_warn_but_keep(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("A\t()\nA\t(())\n")
        with pytest.warns(UserWarning, match="duplicate"):
            records = load_corpus(path, "tsv")
        assert len(records) == 2

    def test_paper_corpus_loads(self, paper_records):
        ids = [r.id for r in paper_records]
        assert ids == ["4M4O", "5U3G", "5U3G_FR3D", "7K16", "7K16_FR3D", "SHAPE_EXAMPLE"]
        # 19 parentheses plus 1 square bracket open the 4M4O structure
        assert paper_records[0].structure.count("(") + paper_records[0].structure.count("[") == 20


class TestAnalyze:
    def test_paper_facts(self, paper_records):
        report = analyze(paper_records)
        sec = {p: set(k["secondary"].ids) for p, k in report.per_pattern.items()}
        assert "4M4O" in sec["12"] and "4M4O" in sec["231"]
        assert "5U3G" in sec["12"] and "5U3G" in sec["312"]
        assert "7K16_FR3D" in sec["132"]
        assert "7K16" not in sec["132"]
        assert report.per_pattern["21"]["shape"].ids == []

    def test_single_pair_in_no_list(self):
        report = analyze([CorpusRecord("X", "(.)")])
        for kinds in report.per_pattern.values():
            assert kinds["secondary"].ids == []
            assert kinds["shape"].ids == []

    def test_parse_failures_isolated(self):
        records = [CorpusRecord("BAD", "(()"), CorpusRecord("OK", "(())")]
        report = analyze(records)
        assert [rid for rid, _ in report.parse_failures] == ["BAD"]
        assert "OK" in report.per_pattern["21"]["secondary"].ids
        assert report.record_count == 2

    def test_counts_positive(self, paper_records):
        report = analyze(paper_records)
        for kinds in report.per_pattern.values():
            for census in kinds.values():
                assert all(census.counts[rid] >= 1 for rid in census.ids)
                assert set(census.ids) == set(census.counts)

    def test_order_independence(self, paper_records):
        fwd = analyze(paper_records)
        rev = analyze(list(reversed(paper_records)))
        for pattern, kinds in fwd.per_pattern.items():
            for kind, census in kinds.items():
                assert set(census.ids) == set(rev.per_pattern[pattern][kind].ids)
                assert census.counts == rev.per_pattern[pattern][kind].counts

    def test_repeated_pattern_counted_once(self, paper_records):
        names = ["21", "132", "21", "1,3,2", "12"]
        report = analyze(paper_records, [EndheredPattern.from_string(p) for p in names])
        assert list(report.per_pattern) == ["21", "132", "12"]
        single = analyze(paper_records, [EndheredPattern.from_string(p) for p in ["21", "132", "12"]])
        assert report.to_json() == single.to_json()
        secondary = report.per_pattern["21"]["secondary"]
        assert len(secondary.ids) == len(set(secondary.ids)) > 0

    def test_json_round_trip(self, paper_records):
        payload = json.loads(analyze(paper_records).to_json())
        assert payload["_totals"]["records"] == 6
        assert "4M4O" in payload["12"]["secondary"]["ids"]


class TestScatter:
    def test_hairpin(self):
        rows = scatter_data([CorpusRecord("H", "((((....))))")])
        assert rows == [("H", 4, 3, 2)]

    def test_zero_rows_excluded(self):
        assert scatter_data([CorpusRecord("X", "()")]) == []

    def test_4m4o_present(self, paper_records):
        rows = {r[0]: r for r in scatter_data(paper_records)}
        assert rows["4M4O"][2] >= 1

    def test_csv_header(self):
        text = scatter_csv([("H", 4, 3, 2)])
        assert text == "id,size,count_21,count_321\nH,4,3,2\n"


class TestBrackets:
    def test_single_type(self):
        assert bracket_type_stats([CorpusRecord("A", "((..))")]) == {1: ["A"]}

    def test_4m4o_two_types(self, paper_records):
        stats = bracket_type_stats(paper_records)
        assert "4M4O" in stats[2]

    def test_dots_only(self):
        assert bracket_type_stats([CorpusRecord("D", "...")]) == {0: ["D"]}
