from __future__ import annotations

import json
import string
import types
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

import citeaudit
from citeaudit.identifiers import make_identifier
from citeaudit.model import (
    FailureMode,
    EvidenceItem,
    IdentifierKind,
    Span,
    Verdict,
    VerdictStatus,
    _LATIN_FOLD,
    fold_diacritics,
    normalize_name,
    record_to_dict,
)
from citeaudit.resolve import _decode_record
from tests.conftest import make_citation, make_record
from tests.roundtrip import parse_verdict, serialize_verdict


class TestNormalizeName:
    def test_given_then_surname(self):
        a = normalize_name("Ashish Vaswani")
        assert a.surname == "vaswani"
        assert a.given_tokens == ("ashish",)
        assert not a.is_placeholder

    def test_comma_form(self):
        a = normalize_name("Kingma, Diederik P.")
        assert a.surname == "kingma"
        assert a.given_tokens == ("diederik", "p")

    def test_particle_stays_with_surname(self):
        a = normalize_name("T. Van Cutsem")
        assert a.surname == "van cutsem"
        assert a.given_tokens == ("t",)

    def test_diacritics_fold(self):
        assert normalize_name("José García").surname == "garcia"
        assert normalize_name("Łukasz Kaiser").surname == "kaiser"

    def test_placeholder_names(self):
        assert normalize_name("Firstname Lastname").is_placeholder
        assert normalize_name("Others").is_placeholder
        assert normalize_name("Anonymous").is_placeholder
        assert not normalize_name("Jane Doe").is_placeholder

    def test_single_token(self):
        a = normalize_name("Nanda")
        assert a.surname == "nanda"
        assert a.given_tokens == ()

    def test_empty_surname_before_comma_takes_the_given_part(self):
        a = normalize_name(", Ada")
        assert a.surname == "ada"
        assert a.given_tokens == ()
        assert not a.is_placeholder


def _fold_per_character(text: str) -> str:
    """fold_diacritics without its ASCII shortcut: every character goes
    through the _LATIN_FOLD table or NFKD minus combining marks."""
    out = []
    for ch in text:
        if ch in _LATIN_FOLD:
            out.append(_LATIN_FOLD[ch])
        else:
            decomposed = unicodedata.normalize("NFKD", ch)
            out.append("".join(c for c in decomposed if not unicodedata.combining(c)))
    return "".join(out)


class TestFoldDiacritics:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            string.printable,
            "Attention is all you need",
            "José García, Łukasz Kaiser and Søren Ærø",
            "Straße, þorn, ðe, ı, œuvre, Œ, đ, Đ",
            "".join(_LATIN_FOLD),
            "ﬁne ½ x² 中文 😀 a\u0301",
        ],
    )
    def test_same_as_per_character_path(self, text):
        assert fold_diacritics(text) == _fold_per_character(text)

    @given(st.text(max_size=60))
    def test_same_as_per_character_path_on_any_text(self, text):
        assert fold_diacritics(text) == _fold_per_character(text)


class TestVerdictContract:
    def test_hallucinated_requires_both_codes(self):
        with pytest.raises(ValueError):
            Verdict(status=VerdictStatus.HALLUCINATED, primary=FailureMode.TF)

    def test_hallucinated_rejects_equal_codes(self):
        with pytest.raises(ValueError):
            Verdict(
                status=VerdictStatus.HALLUCINATED,
                primary=FailureMode.TF,
                secondary=FailureMode.TF,
            )

    def test_hallucinated_accepts_distinct_codes(self):
        v = Verdict(
            status=VerdictStatus.HALLUCINATED,
            primary=FailureMode.TF,
            secondary=FailureMode.SH,
        )
        assert v.primary is not v.secondary

    def test_verified_requires_record(self):
        with pytest.raises(ValueError):
            Verdict(status=VerdictStatus.VERIFIED)

    def test_verified_rejects_codes(self):
        with pytest.raises(ValueError):
            Verdict(
                status=VerdictStatus.VERIFIED,
                matched_record=make_record(),
                primary=FailureMode.TF,
            )

    def test_unverifiable_requires_cause(self):
        with pytest.raises(ValueError):
            Verdict(status=VerdictStatus.UNVERIFIABLE)
        v = Verdict(status=VerdictStatus.UNVERIFIABLE, cause="offline")
        assert v.cause == "offline"


class TestSerialization:
    def test_verdict_round_trip(self):
        v = Verdict(
            status=VerdictStatus.HALLUCINATED,
            citation_key="k1",
            primary=FailureMode.IH,
            secondary=FailureMode.SH,
            evidence=(
                EvidenceItem(
                    mode=FailureMode.IH, detail="id points elsewhere", score=0.2
                ),
            ),
        )
        assert parse_verdict(serialize_verdict(v)) == v

    def test_verified_round_trip(self):
        v = Verdict(
            status=VerdictStatus.VERIFIED,
            citation_key="k2",
            matched_record=make_record(pages="10-20"),
        )
        assert parse_verdict(serialize_verdict(v)) == v

    def test_unverifiable_round_trip(self):
        v = Verdict(status=VerdictStatus.UNVERIFIABLE, citation_key="k3", cause="offline")
        assert parse_verdict(serialize_verdict(v)) == v

    def test_serialized_form_is_json(self):
        v = Verdict(status=VerdictStatus.UNVERIFIABLE, cause="offline")
        payload = json.loads(serialize_verdict(v))
        assert payload["status"] == "unverifiable"
        assert payload["cause"] == "offline"

    # Records are read back by the decoder of fixture entries and cache
    # payloads, the one reader of stored records.
    def test_record_round_trip_preserves_pages(self):
        r = make_record(pages="436-444")
        assert _decode_record(record_to_dict(r), "") == r

    def test_author_round_trip(self):
        r = make_record(authors=("T. Van Cutsem",))
        assert _decode_record(record_to_dict(r), "") == r

    def test_identifier_round_trip(self):
        i = make_identifier(IdentifierKind.DOI, "10.1038/nature14539")
        assert i.syntactically_valid
        r = make_record(identifiers=(i,))
        assert _decode_record(record_to_dict(r), "") == r


class TestSpan:
    def test_str_shows_position(self):
        s = Span(3, 1, 3, 40)
        assert "3" in str(s)


@given(
    status=st.sampled_from(list(VerdictStatus)),
    primary=st.sampled_from(list(FailureMode)),
    secondary=st.sampled_from(list(FailureMode)),
)
def test_verdict_constructor_never_allows_equal_codes(status, primary, secondary):
    kwargs = {"status": status}
    if status is VerdictStatus.HALLUCINATED:
        kwargs.update(primary=primary, secondary=secondary)
    elif status is VerdictStatus.UNVERIFIABLE:
        kwargs["cause"] = "offline"
    else:
        kwargs["matched_record"] = make_record()
    if status is VerdictStatus.HALLUCINATED and primary is secondary:
        with pytest.raises(ValueError):
            Verdict(**kwargs)
    else:
        v = Verdict(**kwargs)
        if v.status is VerdictStatus.HALLUCINATED:
            assert v.primary is not v.secondary


def test_package_exports_are_exactly_its_public_names():
    for name in citeaudit.__all__:
        assert hasattr(citeaudit, name), name
    public = {
        name
        for name, value in vars(citeaudit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(citeaudit.__all__)
