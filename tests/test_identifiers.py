from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from citeaudit.identifiers import (
    IdentifierSyntax,
    extract_identifiers,
    make_identifier,
    scan_identifiers,
    scan_placeholders,
    strip_identifier_prefix,
)
from citeaudit.model import FailureMode, IdentifierKind
from citeaudit.parsing import parse_text
from tests.conftest import make_citation
from tests.oracles import scan_identifiers_unfiltered

DOI = IdentifierKind.DOI
ARXIV = IdentifierKind.ARXIV
URL = IdentifierKind.URL


def syntax_of(kind, value):
    return make_identifier(kind, value).syntax


class TestDoiGrammar:
    @pytest.mark.parametrize(
        "value",
        [
            "10.1038/nature14539",
            "10.1109/TNNLS.2021.3084827",
            "10.1016/j.epsr.2020.106811",
            "10.48550/arXiv.2107.13586",
            "10.1234.5/suffix",
        ],
    )
    def test_valid(self, value):
        assert syntax_of(DOI, value) is IdentifierSyntax.VALID

    @pytest.mark.parametrize(
        "value",
        [
            "11.1038/nature14539",
            "10.103/short-registrant",
            "10.1038",
            "10.1038/",
            "10.1038/with space",
            "doi-less-string",
            "",
        ],
    )
    def test_invalid(self, value):
        assert syntax_of(DOI, value) is IdentifierSyntax.INVALID

    def test_prefixes_stripped(self):
        for raw in (
            "doi:10.1038/nature14539",
            "https://doi.org/10.1038/nature14539",
            "http://dx.doi.org/10.1038/nature14539",
        ):
            assert strip_identifier_prefix(DOI, raw) == "10.1038/nature14539"
            assert syntax_of(DOI, raw) is IdentifierSyntax.VALID

    def test_normalized_is_lowercase(self):
        ident = make_identifier(DOI, "10.1109/TNNLS.2021.3084827")
        assert ident.normalized == "10.1109/tnnls.2021.3084827"


class TestArxivGrammar:
    @pytest.mark.parametrize(
        "value",
        ["2107.13586", "1706.03762", "9912.1234", "2107.13586v2", "0704.0001"],
    )
    def test_valid_new_style(self, value):
        assert syntax_of(ARXIV, value) is IdentifierSyntax.VALID

    @pytest.mark.parametrize(
        "value",
        ["hep-th/9901001", "math.GT/0309136", "cs/0112017", "astro-ph/0601001"],
    )
    def test_valid_old_style(self, value):
        assert syntax_of(ARXIV, value) is IdentifierSyntax.VALID

    @pytest.mark.parametrize(
        "value",
        [
            "2107.135",
            "2107.135867",
            "210.13586",
            "2107-13586",
            "hep-th/99010",
            "hep-th/99010011",
            "2107.13586v",
            "",
        ],
    )
    def test_invalid(self, value):
        assert syntax_of(ARXIV, value) is IdentifierSyntax.INVALID

    def test_version_split_out(self):
        ident = make_identifier(ARXIV, "2107.13586v3")
        assert ident.normalized == "2107.13586"

    def test_prefixes_stripped(self):
        for raw in ("arXiv:2107.13586", "https://arxiv.org/abs/2107.13586"):
            assert strip_identifier_prefix(ARXIV, raw) == "2107.13586"
            assert syntax_of(ARXIV, raw) is IdentifierSyntax.VALID


class TestUrlGrammar:
    def test_valid(self):
        assert syntax_of(URL, "https://example.org/paper") is IdentifierSyntax.VALID

    def test_invalid(self):
        assert syntax_of(URL, "not a url") is IdentifierSyntax.INVALID
        assert syntax_of(URL, "ftp://example.org/x") is IdentifierSyntax.INVALID


class TestPlaceholders:
    @pytest.mark.parametrize(
        "kind,value",
        [
            (ARXIV, "XXXX.XXXXX"),
            (ARXIV, "xxxx.12345"),
            (DOI, "10.XXXX/xxxx"),
            (DOI, "10.NNNN/nnnn"),
            (DOI, "to be updated"),
            (URL, "https://example.org/TODO"),
        ],
    )
    def test_placeholder_beats_validity(self, kind, value):
        assert syntax_of(kind, value) is IdentifierSyntax.PLACEHOLDER

    def test_placeholder_identifier_is_not_syntactically_valid(self):
        ident = make_identifier(ARXIV, "XXXX.XXXXX")
        assert not ident.syntactically_valid


class TestClaimedForms:
    """The stored value, syntax and lookup form of awkward claimed forms.

    make_identifier strips prefixes from the value until none is left, so a
    doubled prefix is stored bare, and the grammar reads that value."""

    @pytest.mark.parametrize(
        "kind,raw,value,syntax,normalized",
        [
            (DOI, "doi: doi:10.1000/ABC", "10.1000/ABC", IdentifierSyntax.VALID,
             "10.1000/abc"),
            (DOI, "https://doi.org/doi:10.1000/x", "10.1000/x", IdentifierSyntax.VALID,
             "10.1000/x"),
            (ARXIV, "arXiv:arXiv:2101.00001v3", "2101.00001v3", IdentifierSyntax.VALID,
             "2101.00001"),
            (ARXIV, "HEP-TH/9901001", "HEP-TH/9901001", IdentifierSyntax.VALID,
             "hep-th/9901001"),
            (DOI, "10.1000/xxxx", "10.1000/xxxx", IdentifierSyntax.PLACEHOLDER, None),
        ],
    )
    def test_value_syntax_and_lookup_form(self, kind, raw, value, syntax, normalized):
        ident = make_identifier(kind, raw)
        assert ident.value == value
        assert ident.syntax is syntax
        assert ident.normalized == normalized


class TestScanPlaceholders:
    def test_template_authors_flagged(self):
        c = make_citation(authors=("Firstname Lastname", "Others"))
        evidence = scan_placeholders(c)
        assert len([e for e in evidence if e.field == "authors"]) == 2
        assert all(e.mode is FailureMode.PH for e in evidence)

    def test_empty_title_flagged(self):
        c = make_citation(title="", raw_text="Ada Lovelace. Journal, 2020.")
        assert any(e.field == "title" for e in scan_placeholders(c))

    def test_to_be_updated_flagged(self):
        c = make_citation(raw_text="A. Author. Title. Venue, 2020. DOI to be updated.")
        assert any(e.field == "raw_text" for e in scan_placeholders(c))

    def test_to_appear_without_identifier_flagged(self):
        c = make_citation(raw_text="A. Author. Title. To appear, 2020.")
        assert any("to appear" in e.detail for e in scan_placeholders(c))

    def test_to_appear_with_valid_identifier_not_flagged(self):
        ident = make_identifier(ARXIV, "2107.13586")
        c = make_citation(
            identifiers=(ident,),
            raw_text="A. Author. Title. To appear. arXiv:2107.13586, 2020.",
        )
        assert not any("to appear" in e.detail for e in scan_placeholders(c))

    def test_placeholder_identifier_flagged(self):
        ident = make_identifier(ARXIV, "XXXX.XXXXX")
        c = make_citation(identifiers=(ident,))
        assert any(e.field == "identifiers" for e in scan_placeholders(c))

    def test_clean_citation_yields_nothing(self):
        c = make_citation()
        assert scan_placeholders(c) == []


class TestExtractIdentifiers:
    def test_finds_doi_and_arxiv(self):
        text = "See doi:10.1038/nature14539 and arXiv:2107.13586v2 for details."
        found = extract_identifiers(text)
        kinds = {(i.kind, i.value) for i in found}
        assert (DOI, "10.1038/nature14539") in kinds
        assert (ARXIV, "2107.13586v2") in kinds

    def test_bare_doi_in_text(self):
        found = extract_identifiers("Published as 10.1016/j.epsr.2020.106811, 2020.")
        assert any(i.kind is DOI and i.value == "10.1016/j.epsr.2020.106811" for i in found)

    def test_doi_url_collapses_with_doi(self):
        text = "doi:10.1038/nature14539 https://doi.org/10.1038/NATURE14539"
        dois = [i for i in extract_identifiers(text) if i.kind is DOI]
        assert len(dois) == 1

    def test_trailing_punctuation_stripped(self):
        found = extract_identifiers("Available at arXiv:1706.03762.")
        arxiv = [i for i in found if i.kind is ARXIV]
        assert arxiv[0].value == "1706.03762"

    def test_plain_url(self):
        found = extract_identifiers("Code at https://example.org/repo.")
        urls = [i for i in found if i.kind is URL]
        assert urls and urls[0].value == "https://example.org/repo"

    def test_mask_spans_cover_identifiers(self):
        text = "T. Author. Title. arXiv preprint arXiv:2107.13586, 2021."
        identifiers, spans = scan_identifiers(text)
        assert identifiers == extract_identifiers(text)
        assert any(text[a:b].endswith("2107.13586") for a, b in spans)


class TestGrammarProperties:
    @given(
        yymm=st.integers(0, 9999),
        number=st.integers(0, 99999),
        width=st.sampled_from([4, 5]),
        version=st.one_of(st.none(), st.integers(1, 9)),
    )
    def test_generated_arxiv_ids_accepted(self, yymm, number, width, version):
        value = f"{yymm:04d}.{number:0{width}d}"
        if version is not None:
            value += f"v{version}"
        assert syntax_of(ARXIV, value) is IdentifierSyntax.VALID

    @given(
        registrant=st.integers(1000, 999999999),
        suffix=st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=".-_;()"
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_generated_dois_accepted(self, registrant, suffix):
        value = f"10.{registrant}/{suffix}"
        assert syntax_of(DOI, value) is IdentifierSyntax.VALID

    @given(yymm=st.integers(0, 9999), number=st.integers(0, 99999))
    def test_dot_mutation_rejected(self, yymm, number):
        broken = f"{yymm:04d}Q{number:05d}"
        assert syntax_of(ARXIV, broken) is IdentifierSyntax.INVALID


# Fragments of the free-text identifier forms and what surrounds them.
# "do", "arx" and "v:" meet the non-ASCII "ı" and "İ", which match "i"
# under IGNORECASE, so a form may match where its lowercased mark is absent.
_scan_fragments = st.sampled_from(
    [
        "doi", "doi:", "doi: ", "doi.org/", "dx.doi.org/", "10.", "10.1145/",
        "10.48550/arXiv.", "arxiv", "arXiv:", "arxiv.org/abs/", "arxiv.org/pdf/",
        "http", "https://", "http://", "://", "do", "arx", "v:", "ı", "İ", "é",
        "1706.03762", "v5", "3357713.3384290", "hep-th/9901001", "XXXX",
        "example.org/p", "abc", " ", ".", ",", ";", ")", "/", "-",
    ]
)


@st.composite
def _scan_texts(draw):
    """Fragments joined, then each character's case drawn at random."""
    text = "".join(draw(st.lists(_scan_fragments, max_size=12)))
    upper = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(c.upper() if u else c for c, u in zip(text, upper))


@given(text=_scan_texts())
@example(text="arXıv:1706.03762")
@example(text="dOı:10.1000/x")
def test_scan_identifiers_matches_the_unfiltered_oracle(text):
    assert scan_identifiers(text) == scan_identifiers_unfiltered(text)


def test_parser_marks_placeholder_arxiv_id():
    report = parse_text(
        "[1] Firstname Lastname. Some title here. arXiv preprint arXiv:XXXX.XXXXX, 2024."
    )
    citation = report.citations[0]
    assert citation.identifiers
    assert all(not i.syntactically_valid for i in citation.identifiers)
