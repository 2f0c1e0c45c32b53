from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeaudit.model import IdentifierKind, Span
from citeaudit.parsing import (
    FORMAT_BIBTEX,
    FORMAT_PLAINTEXT,
    detect_format,
    parse_text,
)
from tests.roundtrip import render, semantic_fields


class TestDetectFormat:
    def test_extension_wins(self):
        assert detect_format("anything", filename="refs.bib") == FORMAT_BIBTEX
        assert detect_format("anything", filename="refs.BibTeX") == FORMAT_BIBTEX

    def test_entry_marker_detected(self):
        assert detect_format("@article{k, title={T}}") == FORMAT_BIBTEX
        assert detect_format("@Book( k, title = {T} )") == FORMAT_BIBTEX

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="unknown reference format 'ris'"):
            parse_text("TY  - JOUR", format="ris")

    def test_plain_text_fallback(self):
        assert detect_format("[1] A. Author. Title. Venue, 2020.") == FORMAT_PLAINTEXT


# DBLP's export layout: one author per line, "and" at the line end.
DBLP_VASWANI = """@inproceedings{DBLP:conf/nips/VaswaniSP17,
  author       = {Ashish Vaswani and
                  Noam Shazeer and
                  Niki Parmar},
  title        = {Attention is All you Need},
  booktitle    = {Advances in Neural Information Processing Systems},
  year         = {2017}
}
"""


class TestBibtex:
    def test_basic_entry(self):
        report = parse_text(
            """@article{lecun2015deep,
              author = {Yann LeCun and Yoshua Bengio and Geoffrey Hinton},
              title = {Deep learning},
              journal = {Nature},
              year = {2015},
              volume = {521},
              number = {7553},
              pages = {436--444},
              doi = {10.1038/nature14539},
            }"""
        )
        (c,) = report.citations
        assert c.source_key == "lecun2015deep"
        assert [a.surname for a in c.authors] == ["lecun", "bengio", "hinton"]
        assert c.title == "Deep learning"
        assert c.year == 2015
        assert c.pages == "436--444"
        assert any(
            i.kind is IdentifierKind.DOI and i.value == "10.1038/nature14539"
            for i in c.identifiers
        )

    def test_nested_braces_preserved(self):
        report = parse_text('@article{k, title = {The {GPT-2} Story}, year = {2020}}')
        assert report.citations[0].title == "The GPT-2 Story"

    def test_quoted_values(self):
        report = parse_text('@article{k, title = "Quoted title", year = "2020"}')
        assert report.citations[0].title == "Quoted title"
        assert report.citations[0].year == 2020

    def test_month_macro_resolves(self):
        report = parse_text("@article{k, title={T}, year={2020}, month = jun}")
        assert not any("month" in str(w) for w in report.warnings)

    def test_concatenation_with_hash(self):
        report = parse_text(
            '@string{jmlr = {Journal of Machine Learning Research}}\n'
            '@article{k, title = jmlr # " (JMLR)", year={2020}}'
        )
        assert report.citations[0].title == "Journal of Machine Learning Research (JMLR)"

    def test_unknown_macro_warns_and_keeps_literal(self):
        report = parse_text("@article{k, title = unknownmac, year={2020}}")
        assert any("unknownmac" in str(w) for w in report.warnings)
        assert report.citations[0].title == "unknownmac"

    def test_missing_key_warns_and_synthesizes(self):
        report = parse_text("@article{, title={T}, year={2020}}")
        assert report.citations[0].source_key.startswith("entry-")
        assert report.warnings

    def test_resync_after_malformed_entry(self):
        text = (
            "@article{broken, title = {Unclosed\n\n"
            "@article{good, title = {Fine}, year = {2020}}\n"
        )
        report = parse_text(text)
        keys = [c.source_key for c in report.citations]
        assert "good" in keys
        assert report.warnings

    @pytest.mark.parametrize(
        ("head", "entry_type", "end_col"),
        [
            ("@article{broken, title = {Unclosed", "article", 26),
            ('@article{broken, title = "Unclosed', "article", 26),
            ("@comment(never closed", "comment", 9),
            ("@string{ = {x}}", "string", 10),
        ],
        ids=["brace", "quote", "comment-paren", "nameless-string"],
    )
    def test_malformed_entry_warns_once_and_next_entry_parses(self, head, entry_type, end_col):
        report = parse_text(f"{head}\n\n@article{{good, title = {{Fine}}, year = {{2020}}}}\n")
        (warning,) = report.warnings
        assert warning.message.startswith(f"malformed @{entry_type} entry")
        assert warning.span == Span(1, 1, 1, end_col)
        (c,) = report.citations
        assert (c.source_key, c.title, c.year) == ("good", "Fine", 2020)

    @pytest.mark.parametrize(
        ("text", "warnings", "first"),
        [
            ("@article{a, title={T}, year = 2017}\n\n{good}", [], ("a", 2017, ())),
            ("@article{a, title {T}}\n\n{good}",
             ["1:1-1:19: malformed @article entry: 'title' missing '='"], None),
            ("@article{a, title = ,}\n\n{good}",
             ["1:1-1:21: malformed @article entry: expected a field value"], None),
            ("mail me @ home\n\n{good}", ["1:9-1:9: stray '@' with no entry type"], None),
            ("@article a\n\n{good}",
             ["1:1-1:10: malformed @article entry: expected '{' after @article"], None),
            ("{good}\n\n@article{a, title={T},",
             ["3:1-3:1: malformed @article entry: entry never closed"], None),
            ("@article{a, title={T}, year={c. 2019}}\n\n{good}", [], ("a", 2019, ())),
            ("@article{a, title={T}, year={forthcoming}}\n\n{good}",
             ["1:1-1:42: entry 'a': unparseable year 'forthcoming'"], ("a", None, ())),
            ("@misc{a, title={T}, url={https://example.org/paper}}\n\n{good}", [],
             ("a", None, ((IdentifierKind.URL, "https://example.org/paper"),))),
        ],
        ids=["bare-year", "missing-equals", "empty-value", "stray-at", "no-opener", "never-closed",
             "year-with-prefix", "year-in-words", "url-field"],
    )
    def test_reader_branch_warns_and_other_entry_parses(self, text, warnings, first):
        good = "@article{good, title = {Fine}, year = {2020}}"
        report = parse_text(text.replace("{good}", good), format=FORMAT_BIBTEX)
        assert [str(w) for w in report.warnings] == warnings
        got = [
            (c.source_key, c.year, tuple((i.kind, i.value) for i in c.identifiers))
            for c in report.citations
        ]
        assert [g for g in got if g[0] == "a"] == ([first] if first else [])
        assert ("good", 2020, ()) in got

    def test_comment_and_preamble_skipped(self):
        text = (
            '@comment{ignore me}\n@preamble{"\\noop"}\n'
            "@article{k, title={T}, year={2020}}\n"
        )
        report = parse_text(text)
        assert len(report.citations) == 1

    def test_paren_delimited_entry(self):
        report = parse_text("@article(k, title={T}, year={2020})")
        assert report.citations[0].source_key == "k"
        assert report.citations[0].title == "T"

    def test_latex_accents_folded_in_authors(self):
        report = parse_text(
            "@article{k, author = {Aidan N. G{\\'o}mez and {\\L}ukasz Kaiser}, "
            "title={T}, year={2017}}"
        )
        surnames = [a.surname for a in report.citations[0].authors]
        assert surnames == ["gomez", "kaiser"]

    def test_dblp_wrapped_author_list(self):
        report = parse_text(DBLP_VASWANI)
        authors = report.citations[0].authors
        assert [a.surname for a in authors] == ["vaswani", "shazeer", "parmar"]
        assert [a.given_tokens for a in authors] == [("ashish",), ("noam",), ("niki",)]
        report = parse_text("@misc{k, author = {{Barnes and\nNoble} and\nAda Lovelace}}")
        assert [a.raw for a in report.citations[0].authors] == ["Barnes and Noble", "Ada Lovelace"]

    def test_latex_letter_commands_become_letters(self):
        report = parse_text(
            "@article{k, author = {Jens S{\\o}rensen and Kemal Y{\\i}ld{\\i}z and "
            "Lars {\\AA}sa and J. {\\L}ukasiewicz}, title={T}, year={2017}}"
        )
        surnames = [a.surname for a in report.citations[0].authors]
        assert surnames == ["sorensen", "yildiz", "asa", "lukasiewicz"]
        # A longer command is not a letter command and a letter.
        report = parse_text(
            "@article{k, title = {{\\it Deep} learning\\ldots{} for {\\OE}uvre and C{\\oe}ur}}"
        )
        assert report.citations[0].title == "Deep learning for OEuvre and Coeur"

    @pytest.mark.parametrize(
        "title, expected",
        [
            ("\\textbf{BERT} rocks", "BERT rocks"),
            ("{\\bf Deep} nets", "Deep nets"),
            ("{\\tt word2vec}", "word2vec"),
            ("\\textit{X}", "X"),
            ("Tr\\u{a}n \\v cap Erd\\H{o}s", "Tran cap Erdos"),
        ],
        ids=["textbf", "bf", "tt", "textit", "letter-accents"],
    )
    def test_command_that_begins_with_an_accent_letter(self, title, expected):
        # Only a whole \u, \v, \H, \t, \b, ... is an accent; a longer
        # command is dropped.
        report = parse_text(f"@article{{k, title = {{{title}}}, year={{2020}}}}")
        assert report.citations[0].title == expected

    def test_eprint_becomes_arxiv_identifier(self):
        report = parse_text(
            "@article{k, title={T}, year={2017}, eprint={1706.03762}, "
            "archiveprefix={arXiv}}"
        )
        ids = report.citations[0].identifiers
        assert any(i.kind is IdentifierKind.ARXIV and i.value == "1706.03762" for i in ids)

    def test_identifier_in_note_field(self):
        report = parse_text(
            "@misc{k, title={T}, year={2021}, note={arXiv:2107.13586}}"
        )
        ids = report.citations[0].identifiers
        assert any(i.kind is IdentifierKind.ARXIV for i in ids)

    def test_versioned_eprint_and_note_give_one_arxiv_identifier(self):
        report = parse_text(
            "@article{k, title={T}, year={2017}, eprint={1706.03762v5}, "
            "note={arXiv:1706.03762}}"
        )
        ids = report.citations[0].identifiers
        assert [(i.kind, i.value) for i in ids] == [(IdentifierKind.ARXIV, "1706.03762v5")]

    def test_raw_text_is_exact_source_slice(self):
        text = "@article{k, title={A Title}, year={2020}}"
        report = parse_text(text)
        assert report.citations[0].raw_text == text

    def test_three_digit_year_warns(self):
        report = parse_text("@article{k, title={T}, year={202}}")
        assert report.citations[0].year is None
        assert any("year" in str(w).lower() for w in report.warnings)

    def test_entry_order_preserved(self):
        text = "\n".join(
            f"@article{{k{i}, title={{T{i}}}, year={{2020}}}}" for i in range(10)
        )
        report = parse_text(text)
        assert [c.source_key for c in report.citations] == [f"k{i}" for i in range(10)]


class TestPlaintext:
    def test_bracket_markers(self):
        report = parse_text(
            "[1] A. Archer and B. Hoffman. First title here. Venue One, 2019.\n"
            "[2] C. Cortez. Second title here. Venue Two, 2020.\n"
        )
        assert [c.source_key for c in report.citations] == ["1", "2"]
        assert report.citations[1].year == 2020

    def test_numbered_markers(self):
        report = parse_text(
            "1. A. Archer. First title. Venue, 2019.\n"
            "2. B. Bellini. Second title. Venue, 2020.\n"
            "3. C. Cortez. Third title. Venue, 2021.\n"
        )
        assert len(report.citations) == 3

    def test_blank_line_blocks(self):
        report = parse_text(
            "A. Archer. First title. Venue, 2019.\n\n"
            "B. Bellini. Second title. Venue, 2020.\n"
        )
        assert len(report.citations) == 2

    def test_apa_style(self):
        report = parse_text(
            "LeCun, Y., Bengio, Y., & Hinton, G. (2015). Deep learning. "
            "Nature, 521(7553), 436-444."
        )
        (c,) = report.citations
        assert [a.surname for a in c.authors] == ["lecun", "bengio", "hinton"]
        assert c.year == 2015
        assert c.title == "Deep learning"
        assert c.pages == "436-444"

    def test_volume_colon_pages(self):
        report = parse_text(
            "[1] M. Paolone and C. Vournas. A title about grids. "
            "Electric Power Systems Research, 189:106811, 2020."
        )
        (c,) = report.citations
        assert c.pages == "106811"

    @pytest.mark.parametrize(
        "venue_segment, pages",
        [
            ("Nature, 521:436-444, 2015.", "436-444"),
            ("Venue, 12(3), 45-67, 2015.", "45-67"),
            ("Venue, vol. 5, no. 3, pp. 1–10, 2015.", "1–10"),
            ("Venue, pp. 45 - 67, 2015.", "45-67"),
            ("Venue, 45-67, 2015.", "45-67"),
            ("Venue, 2019-2020.", None),
            ("Venue, 2019–2020.", None),
            ("Venue, 1999 - 2000.", None),
            ("Venue, 45–67, 2019.", "45–67"),
            ("Venue, 2015. doi:10.1000/123-456", None),
        ],
        ids=["volume-colon", "volume-issue-paren", "pp-after-vol-no", "pp-spaced",
             "bare-range", "year-range", "year-range-en-dash", "year-range-spaced",
             "bare-range-en-dash", "doi-suffix"],
    )
    def test_pages_from_venue_segment(self, venue_segment, pages):
        report = parse_text(f"[1] A. Author. A title here. {venue_segment}")
        (c,) = report.citations
        assert c.title == "A title here"
        assert c.pages == pages

    def test_initials_do_not_break_sentences(self):
        report = parse_text("[1] J. R. R. Tolkien. On fairy stories. Venue, 1947.")
        (c,) = report.citations
        assert c.title == "On fairy stories"
        assert c.authors[0].surname == "tolkien"

    def test_vs_does_not_end_a_title(self):
        report = parse_text("[1] A. Author. Nature vs. nurture in learning. Venue, 2019.")
        (c,) = report.citations
        assert c.title == "Nature vs. nurture in learning"

    def test_et_al_stripped(self):
        report = parse_text("[1] A. Vaswani et al. Attention is all you need. NeurIPS, 2017.")
        (c,) = report.citations
        assert [a.surname for a in c.authors] == ["vaswani"]
        assert c.title == "Attention is all you need"

    def test_year_not_taken_from_identifier(self):
        report = parse_text(
            "[1] T. Ige. Some title here. arXiv preprint arXiv:1901.43445, 2021."
        )
        assert report.citations[0].year == 2021

    def test_unextractable_entry_kept_raw_with_warning(self):
        report = parse_text("[1] ???---???")
        (c,) = report.citations
        assert c.raw_text
        assert c.title == ""
        assert report.warnings

    def test_marker_stripped_from_raw_text(self):
        report = parse_text("[1] A. Archer. Title words. Venue, 2019.")
        assert report.citations[0].raw_text.startswith("A. Archer")


class TestRoundTrip:
    def _assert_round_trip(self, text: str, format: str):
        first = parse_text(text, format=format)
        rendered = render(first.citations, format)
        second = parse_text(rendered, format=format)
        assert len(second.citations) == len(first.citations)
        for a, b in zip(first.citations, second.citations):
            assert semantic_fields(a) == semantic_fields(b)

    def test_bibtex_round_trip(self):
        self._assert_round_trip(
            """@article{lecun2015deep,
              author = {Yann LeCun and Yoshua Bengio and Geoffrey Hinton},
              title = {Deep learning},
              journal = {Nature},
              year = {2015},
              volume = {521},
              number = {7553},
              pages = {436--444},
              doi = {10.1038/nature14539},
            }

            @misc{k2,
              author = {Ada Lovelace},
              title = {Notes on the analytical engine},
              year = {1843},
            }""",
            FORMAT_BIBTEX,
        )

    def test_plaintext_round_trip(self):
        self._assert_round_trip(
            "[1] A. Archer and B. Hoffman. Self-distillation for compact vision "
            "transformers. arXiv preprint arXiv:1901.43445, 2019.\n"
            "[2] C. Cortez. Another fine title. Journal of Examples, 12:34-56, 2020.\n",
            FORMAT_PLAINTEXT,
        )

    def test_exemplars_round_trip(self, exemplar_citations):
        rendered = render(exemplar_citations, FORMAT_PLAINTEXT)
        second = parse_text(rendered, format=FORMAT_PLAINTEXT)
        for a, b in zip(exemplar_citations, second.citations):
            assert semantic_fields(a) == semantic_fields(b)

    def test_no_silent_drops(self, exemplar_citations):
        assert len(exemplar_citations) == 5


_surname = st.sampled_from(
    ["Archer", "Bellini", "Cortez", "Dvorak", "Engel", "Fontaine", "Grimaldi"]
)
_initial = st.sampled_from(["A", "B", "C", "D", "E"])
_title_words = st.lists(
    st.sampled_from(
        ["adaptive", "spectral", "methods", "for", "sparse", "learning",
         "graphs", "robust", "estimation", "models"]
    ),
    min_size=2,
    max_size=6,
)


# Between two authors: plain, DBLP's line wrap, tabs, upper case.
_and = st.sampled_from([" and ", " and\n                  ", "\tand\t", " AND "])


@st.composite
def _bib_entries(draw):
    """BibTeX text of 1-4 entries, and the surnames drawn for each entry."""
    n = draw(st.integers(1, 4))
    chunks, surnames = [], []
    for i in range(n):
        names = draw(st.lists(st.tuples(_initial, _surname), min_size=1, max_size=4))
        author = "".join(
            (draw(_and) if j else "") + f"{initial}. {surname}"
            for j, (initial, surname) in enumerate(names)
        )
        words = draw(_title_words)
        year = draw(st.integers(1980, 2025))
        title = " ".join(words).capitalize()
        chunks.append(
            f"@article{{k{i},\n  author = {{{author}}},\n"
            f"  title = {{{title}}},\n  journal = {{Venue Journal}},\n"
            f"  year = {{{year}}}\n}}"
        )
        surnames.append([surname.lower() for _, surname in names])
    return "\n\n".join(chunks), surnames


@given(drawn=_bib_entries())
def test_bibtex_round_trip_property(drawn):
    text, surnames = drawn
    first = parse_text(text, format=FORMAT_BIBTEX)
    assert [[a.surname for a in c.authors] for c in first.citations] == surnames
    rendered = render(first.citations, FORMAT_BIBTEX)
    second = parse_text(rendered, format=FORMAT_BIBTEX)
    assert [semantic_fields(c) for c in first.citations] == [
        semantic_fields(c) for c in second.citations
    ]
