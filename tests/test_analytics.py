from __future__ import annotations

import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeaudit.analytics import (
    EXPECTED_HEADER,
    CodedRow,
    CorpusError,
    load_corpus,
    parse_corpus,
    percent,
    render_summary,
    summarize,
)
from citeaudit.data import load_packaged_corpus
from citeaudit.model import FailureMode
from tests.roundtrip import summary_from_dict

HEADER = ",".join(EXPECTED_HEADER)


def corpus_text(*rows: str) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


class TestParseCorpus:
    def test_happy_path(self):
        rows = parse_corpus(
            corpus_text(
                "P01,Some fabricated citation,TF,SH,",
                "P01,Another one,PAC,IH,checked against publisher site",
            )
        )
        assert len(rows) == 2
        assert rows[0] == CodedRow(
            paper_id="P01",
            citation_text="Some fabricated citation",
            primary=FailureMode.TF,
            secondary=FailureMode.SH,
        )
        assert rows[1].notes == "checked against publisher site"

    def test_codes_case_insensitive(self):
        rows = parse_corpus(corpus_text("P01,c,tf,sh,"))
        assert rows[0].primary is FailureMode.TF
        assert rows[0].secondary is FailureMode.SH

    def test_quoted_commas_in_citation_text(self):
        rows = parse_corpus(
            corpus_text('P01,"Doe, J. and Roe, R. Fake title. 2021.",TF,SH,')
        )
        assert rows[0].citation_text == "Doe, J. and Roe, R. Fake title. 2021."

    def test_blank_lines_skipped(self):
        rows = parse_corpus(HEADER + "\n\nP01,c,TF,SH,\n\n")
        assert len(rows) == 1

    def test_same_code_twice_is_legal(self):
        rows = parse_corpus(corpus_text("P01,c,TF,TF,"))
        assert rows[0].primary is rows[0].secondary

    def test_empty_file(self):
        with pytest.raises(CorpusError) as exc:
            parse_corpus("")
        assert exc.value.errors == ["file is empty"]

    def test_wrong_header(self):
        with pytest.raises(CorpusError) as exc:
            parse_corpus("paper,citation,primary\nP01,c,TF\n")
        assert "header must be" in exc.value.errors[0]

    def test_unknown_primary_is_row_addressed(self):
        with pytest.raises(CorpusError) as exc:
            parse_corpus(corpus_text("P01,c,XX,SH,"))
        assert exc.value.errors == [
            "row 2, column primary: unknown failure mode 'XX'"
        ]

    def test_missing_secondary_rejected(self):
        with pytest.raises(CorpusError) as exc:
            parse_corpus(corpus_text("P01,c,TF,,"))
        assert "row 2, column secondary: must not be empty" in exc.value.errors

    def test_wrong_column_count(self):
        with pytest.raises(CorpusError) as exc:
            parse_corpus(corpus_text("P01,c,TF"))
        assert "expected 5 columns, got 3" in exc.value.errors[0]

    def test_all_errors_collected(self):
        with pytest.raises(CorpusError) as exc:
            parse_corpus(
                corpus_text(
                    ",c,TF,SH,",        # empty paper_id
                    "P02,,TF,SH,",      # empty citation text
                    "P03,c,QQ,SH,",     # bad primary
                    "P04,c,TF,QQ,",     # bad secondary
                )
            )
        assert len(exc.value.errors) == 4
        assert [e.split(",")[0] for e in exc.value.errors] == [
            "row 2",
            "row 3",
            "row 4",
            "row 5",
        ]

    def test_load_corpus_reads_file(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(corpus_text("P01,c,TF,SH,"), encoding="utf-8")
        assert len(load_corpus(p)) == 1


class TestSummarize:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_row(self):
        s = summarize(parse_corpus(corpus_text("P01,c,TF,SH,")))
        assert s.n_citations == 1
        assert s.n_papers == 1
        assert s.mean_per_paper == 1.0
        assert s.median_per_paper == 1.0
        assert s.buckets == {"1-2": 1, "3-6": 0, "7+": 0}
        assert s.compound_rate == 1.0
        assert s.primary_counts == {"TF": 1, "PAC": 0, "IH": 0, "SH": 0, "PH": 0}

    def test_non_compound_rows_lower_the_rate(self):
        s = summarize(
            parse_corpus(corpus_text("P01,a,TF,TF,", "P01,b,TF,SH,"))
        )
        assert s.compound_rate == 0.5

    def test_bucket_edges(self):
        rows = []
        for paper, n in [("A", 2), ("B", 3), ("C", 6), ("D", 7)]:
            rows.extend(f"{paper},c{i},TF,SH," for i in range(n))
        s = summarize(parse_corpus(corpus_text(*rows)))
        assert s.buckets == {"1-2": 1, "3-6": 2, "7+": 1}
        assert s.min_per_paper == 2
        assert s.max_per_paper == 7

    def test_packaged_corpus_headline_numbers(self):
        s = summarize(load_packaged_corpus())
        assert s.n_citations == 100
        assert s.n_papers == 53
        assert s.primary_counts == {"TF": 66, "PAC": 27, "IH": 4, "PH": 2, "SH": 1}
        assert s.secondary_counts == {"SH": 63, "IH": 29, "PH": 4, "PAC": 3, "TF": 1}
        assert abs(s.mean_per_paper - 1.89) < 0.005
        assert s.median_per_paper == 2.0
        assert s.min_per_paper == 1
        assert s.max_per_paper == 13
        assert s.buckets == {"1-2": 49, "3-6": 3, "7+": 1}
        assert s.compound_rate == 1.0

    def test_row_order_does_not_matter(self):
        rows = load_packaged_corpus()
        shuffled = rows[:]
        random.Random(7).shuffle(shuffled)
        assert summarize(shuffled) == summarize(rows)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["P1", "P2", "P3"]),
                st.sampled_from(list(FailureMode)),
                st.sampled_from(list(FailureMode)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_counts_are_conserved(self, triples):
        rows = [
            CodedRow(paper_id=p, citation_text="c", primary=a, secondary=b)
            for p, a, b in triples
        ]
        s = summarize(rows)
        assert sum(s.primary_counts.values()) == len(rows)
        assert sum(s.secondary_counts.values()) == len(rows)
        assert sum(s.per_paper.values()) == len(rows)
        assert sum(s.buckets.values()) == s.n_papers


class TestPercent:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (66, 100, "66.0"),
            (1, 3, "33.3"),
            (2, 3, "66.7"),
            (1, 400, "0.3"),   # 0.25 rounds half-up, not to even
            (3, 400, "0.8"),   # 0.75 likewise
            (1, 1, "100.0"),
            (0, 5, "0.0"),
            (5, 0, "0.0"),
        ],
    )
    def test_half_up_formatting(self, num, den, expected):
        assert percent(num, den) == expected


@pytest.fixture(scope="module")
def packaged_summary():
    return summarize(load_packaged_corpus())


class TestRendering:
    def test_text_layout(self, packaged_summary):
        text = render_summary(packaged_summary, format="text")
        lines = text.splitlines()
        assert lines[0] == "Primary failure modes (n=100)"
        assert lines[1] == "TF      66  66.0%"
        assert "Secondary failure modes" in lines
        assert "mean 1.89  median 2  min 1  max 13" in lines
        assert "1-2: 49  3-6: 3  7+: 1" in lines
        assert lines[-1] == "compound rate: 100.0%"

    def test_csv_layout(self, packaged_summary):
        text = render_summary(packaged_summary, format="csv")
        lines = text.splitlines()
        assert lines[0] == "section,label,count,share"
        assert "primary,TF,66,66.0" in lines
        assert "secondary,SH,63,63.0" in lines
        assert "stats,n_papers,53," in lines
        assert "bucket,7+,1," in lines

    def test_json_round_trip(self, packaged_summary):
        text = render_summary(packaged_summary, format="json")
        assert summary_from_dict(json.loads(text)) == packaged_summary

    def test_dict_round_trip(self, packaged_summary):
        assert (
            summary_from_dict(asdict(packaged_summary)) == packaged_summary
        )

    def test_unknown_format(self, packaged_summary):
        with pytest.raises(ValueError):
            render_summary(packaged_summary, format="yaml")
