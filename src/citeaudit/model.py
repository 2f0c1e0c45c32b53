"""Shared domain types: citations, resolved records, failure codes, verdicts.

All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache


class FailureMode(Enum):
    """The five citation failure codes."""

    TF = "TF"   # total fabrication: zero overlap with any real work
    PAC = "PAC"  # partial attribute corruption: real and fake elements blended
    IH = "IH"   # identifier hijacking: valid id pointing at a different paper
    SH = "SH"   # semantic hallucination: plausible but non-existent title
    PH = "PH"   # placeholder hallucination: unfilled template text

    @classmethod
    def parse(cls, code: str) -> "FailureMode":
        try:
            return cls(code.strip().upper())
        except ValueError:
            raise ValueError(f"unknown failure code {code!r}") from None


class IdentifierKind(Enum):
    DOI = "doi"
    ARXIV = "arxiv"
    URL = "url"


class IdentifierSyntax(Enum):
    VALID = "valid"
    INVALID = "invalid"
    PLACEHOLDER = "placeholder"


class VerdictStatus(Enum):
    VERIFIED = "verified"
    HALLUCINATED = "hallucinated"
    UNVERIFIABLE = "unverifiable"


class FieldMatch(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    MISSING = "missing"  # claimed field absent, nothing to compare


# Tokens that mark an author slot the generator never filled in.
DEFAULT_PLACEHOLDER_TOKENS = frozenset(
    {"firstname", "lastname", "others", "anonymous", "author", "tbd"}
)

# Surname particles attach to the surname so "Van Cutsem" != "Cutsem" mismatches
# don't arise between citation styles.
_SURNAME_PARTICLES = frozenset(
    {
        "van", "von", "de", "der", "den", "del", "della", "di", "da",
        "la", "le", "du", "dos", "das", "ter", "ten", "op", "bin", "ibn",
        "al", "el", "st",
    }
)

# Characters NFKD leaves intact but that still need ASCII folding.
_LATIN_FOLD = {
    "ß": "ss", "ø": "o", "Ø": "o", "đ": "d", "Đ": "d", "ł": "l", "Ł": "l",
    "æ": "ae", "Æ": "ae", "œ": "oe", "Œ": "oe", "þ": "th", "Þ": "th",
    "ð": "d", "Ð": "d", "ı": "i",
}


def fold_diacritics(text: str) -> str:
    """Fold accented letters to their base form ("é" -> "e", "ö" -> "o")."""
    if text.isascii():
        return text
    out = []
    for ch in text:
        if ch in _LATIN_FOLD:
            out.append(_LATIN_FOLD[ch])
            continue
        decomposed = unicodedata.normalize("NFKD", ch)
        out.append("".join(c for c in decomposed if not unicodedata.combining(c)))
    return "".join(out)


_NAME_SEPARATOR_RE = re.compile(r"[^0-9a-z\-]+")
_LOOSE_DASHES_RE = re.compile(r"(^|\s)-+|-+(\s|$)")


def _name_tokens(text: str) -> list[str]:
    """Casefold, fold diacritics, strip punctuation, split into tokens.

    Hyphens stay inside tokens ("Nguyen-Dich" is one surname token);
    apostrophes vanish ("O'Brien" -> "obrien"); everything else
    non-alphanumeric becomes a separator.
    """
    text = fold_diacritics(text).casefold()
    text = text.replace("'", "").replace("’", "")
    text = _NAME_SEPARATOR_RE.sub(" ", text)
    text = _LOOSE_DASHES_RE.sub(" ", text)  # bare/leading/trailing dashes
    return [t for t in text.split() if t]


@dataclass(frozen=True)
class AuthorName:
    """One author as claimed or resolved, in normalized form."""

    raw: str
    surname: str
    given_tokens: tuple[str, ...] = ()
    is_placeholder: bool = False


# Pure, with a frozen result: a name met again, in the bibliography or in
# a record decoded again, is normalized once.
@lru_cache(maxsize=4096)
def normalize_name(raw: str) -> AuthorName:
    """Normalize one author name into surname + given tokens.

    Handles both "Surname, Given" and "Given Surname" orders, folds
    diacritics, attaches surname particles ("van", "de", ...), and flags
    placeholder names ("Firstname Lastname", "Others").
    """
    raw = raw.strip()
    tokens = _name_tokens(raw)
    if any(t in DEFAULT_PLACEHOLDER_TOKENS for t in tokens) or not tokens:
        return AuthorName(raw=raw, surname="", given_tokens=(), is_placeholder=True)

    if "," in raw:
        # "Surname(s), Given(s)": everything before the first comma is surname.
        head, _, tail = raw.partition(",")
        surname_tokens = _name_tokens(head)
        given = _name_tokens(tail)
        if not surname_tokens:
            surname_tokens, given = given, []
        return AuthorName(
            raw=raw,
            surname=" ".join(surname_tokens),
            given_tokens=tuple(given),
        )

    if len(tokens) == 1:
        return AuthorName(raw=raw, surname=tokens[0])

    # Natural order: surname is the last token, extended left over particles
    # as long as at least one given token remains.
    start = len(tokens) - 1
    while start - 1 >= 1 and tokens[start - 1] in _SURNAME_PARTICLES:
        start -= 1
    return AuthorName(
        raw=raw,
        surname=" ".join(tokens[start:]),
        given_tokens=tuple(tokens[:start]),
    )


@dataclass(frozen=True)
class Identifier:
    """A claimed scholarly identifier. Build via identifiers.make_identifier,
    which runs the grammar once: syntax is its verdict, and normalized the
    lookup form, set only when the identifier is valid."""

    kind: IdentifierKind
    value: str
    syntax: IdentifierSyntax
    normalized: str | None

    @property
    def syntactically_valid(self) -> bool:
        return self.syntax is IdentifierSyntax.VALID


@dataclass(frozen=True)
class Span:
    """Region of the parsed input a warning points at."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}-{self.end_line}:{self.end_col}"


@dataclass(frozen=True)
class ParseWarning:
    """A recoverable problem the parser noticed and worked around."""

    message: str
    span: Span = Span(1, 1, 1, 1)

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


@dataclass(frozen=True)
class ParsedCitation:
    """One reference as claimed by a manuscript."""

    source_key: str
    raw_text: str
    authors: tuple[AuthorName, ...] = ()
    title: str = ""
    year: int | None = None
    pages: str | None = None
    identifiers: tuple[Identifier, ...] = ()


@dataclass(frozen=True)
class ResolvedRecord:
    """One authoritative bibliographic record returned by a provider."""

    provider: str
    title: str
    authors: tuple[AuthorName, ...] = ()
    venue: str = ""
    year: int | None = None
    pages: str | None = None
    identifiers: tuple[Identifier, ...] = ()
    provenance_query: str = ""


@dataclass(frozen=True)
class FieldMatchProfile:
    """Per-field verdicts between a claimed citation and a resolved record."""

    author_match: FieldMatch
    title_match: FieldMatch
    year_match: FieldMatch
    pages_match: FieldMatch
    title_similarity: float
    author_similarity: float

    def core_all_match(self) -> bool:
        """Author, title, and year all agree (the verification gate;
        venue is too noisy to count)."""
        return (
            self.author_match is FieldMatch.MATCH
            and self.title_match is FieldMatch.MATCH
            and self.year_match is FieldMatch.MATCH
        )


@dataclass(frozen=True)
class EvidenceItem:
    """One piece of evidence supporting a failure code."""

    mode: FailureMode
    detail: str
    field: str | None = None
    score: float | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of classifying one citation."""

    status: VerdictStatus
    citation_key: str = ""
    primary: FailureMode | None = None
    secondary: FailureMode | None = None
    cause: str | None = None
    evidence: tuple[EvidenceItem, ...] = ()
    matched_record: ResolvedRecord | None = None

    def __post_init__(self) -> None:
        if self.status is VerdictStatus.HALLUCINATED:
            if self.primary is None or self.secondary is None:
                raise ValueError("hallucinated verdicts need primary and secondary codes")
            if self.primary is self.secondary:
                raise ValueError("secondary code must differ from primary")
        elif self.primary is not None or self.secondary is not None:
            raise ValueError(f"{self.status.value} verdicts carry no failure codes")
        if self.status is VerdictStatus.UNVERIFIABLE and not self.cause:
            raise ValueError("unverifiable verdicts need a cause")
        if self.status is VerdictStatus.VERIFIED and self.matched_record is None:
            raise ValueError("verified verdicts need a matched record")


# --- JSON (de)serialization -------------------------------------------------
#
# Key order is fixed so reports are byte-stable across runs.

def author_to_dict(a: AuthorName) -> dict:
    return {
        "raw": a.raw,
        "surname": a.surname,
        "given_tokens": list(a.given_tokens),
        "is_placeholder": a.is_placeholder,
    }


def identifier_to_dict(i: Identifier) -> dict:
    return {
        "kind": i.kind.value,
        "value": i.value,
        "syntactically_valid": i.syntactically_valid,
    }


def record_to_dict(r: ResolvedRecord) -> dict:
    return {
        "provider": r.provider,
        "title": r.title,
        "authors": [author_to_dict(a) for a in r.authors],
        "venue": r.venue,
        "year": r.year,
        "pages": r.pages,
        "identifiers": [identifier_to_dict(i) for i in r.identifiers],
        "provenance_query": r.provenance_query,
    }


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "status": v.status.value,
        "citation_key": v.citation_key,
        "primary": v.primary.value if v.primary else None,
        "secondary": v.secondary.value if v.secondary else None,
        "cause": v.cause,
        "evidence": [
            {"mode": e.mode.value, "detail": e.detail, "field": e.field, "score": e.score}
            for e in v.evidence
        ],
        "matched_record": record_to_dict(v.matched_record) if v.matched_record else None,
    }
