"""Syntactic validation and normalization of DOIs, arXiv IDs, and URLs.

Pure functions: no network. URL checks cover well-formedness only
(scheme + host); whether anything is hosted there is the resolver's job.
"""
from __future__ import annotations

import re
from functools import lru_cache
from urllib.parse import urlparse

from .model import (
    EvidenceItem,
    FailureMode,
    Identifier,
    IdentifierKind,
    IdentifierSyntax,
    ParsedCitation,
)

# DOI: "10." + digit registrant code (optionally dotted) + "/" + non-empty suffix.
_DOI_RE = re.compile(r"^10\.\d{4,9}(?:\.\d+)*/\S+$")

# arXiv new style: YYMM.NNNN or YYMM.NNNNN, optional "vN" version.
_ARXIV_NEW_RE = re.compile(r"^(\d{4})\.(\d{4,5})(v\d+)?$")
# arXiv old style: archive name (letters/dashes, optional ".XX" subject class),
# "/", exactly 7 digits.
_ARXIV_OLD_RE = re.compile(r"^([a-z][a-z-]*(?:\.[a-z]{2})?)/(\d{7})$", re.IGNORECASE)

_DOI_PREFIX_RE = re.compile(r"^(?:doi:\s*|(?:https?://)?(?:dx\.)?doi\.org/)", re.IGNORECASE)
_ARXIV_PREFIX_RE = re.compile(
    r"^(?:arxiv:\s*|(?:https?://)?arxiv\.org/(?:abs|pdf)/)", re.IGNORECASE
)

# Text fragments that mark an identifier (or field) the generator left unfilled.
_PLACEHOLDER_VALUE_RE = re.compile(r"xxx+|nnnn|to be updated|todo", re.IGNORECASE)


def strip_identifier_prefix(kind: IdentifierKind, value: str) -> str:
    """Drop "doi:", "arXiv:", and resolver-URL prefixes from a claimed value,
    until none is left: "doi: doi:10.1000/x" is "10.1000/x"."""
    value = value.strip()
    prefix = {IdentifierKind.DOI: _DOI_PREFIX_RE, IdentifierKind.ARXIV: _ARXIV_PREFIX_RE}.get(kind)
    while prefix is not None and (bare := prefix.sub("", value)) != value:
        value = bare
    return value


def _apply_grammar(kind: IdentifierKind, value: str) -> tuple[IdentifierSyntax, str | None]:
    """The syntax of a claimed value and, when valid, its lookup form.

    value has no prefix left (make_identifier strips them). DOIs are
    lowercased; arXiv IDs lose any "vN" suffix.
    """
    if _PLACEHOLDER_VALUE_RE.search(value):
        return IdentifierSyntax.PLACEHOLDER, None
    normalized = None
    if kind is IdentifierKind.DOI:
        if _DOI_RE.match(value):
            normalized = value.lower()
    elif kind is IdentifierKind.ARXIV:
        m = _ARXIV_NEW_RE.match(value)
        if m:
            normalized = f"{m.group(1)}.{m.group(2)}"
        elif _ARXIV_OLD_RE.match(value):
            normalized = value.lower()
    else:
        parsed = urlparse(value)
        if parsed.scheme in ("http", "https") and parsed.netloc:
            normalized = value
    if normalized is None:
        return IdentifierSyntax.INVALID, None
    return IdentifierSyntax.VALID, normalized


# Pure, with a frozen result: an identifier met again is parsed once.
@lru_cache(maxsize=4096)
def make_identifier(kind: IdentifierKind, value: str) -> Identifier:
    """Construct an Identifier, the one place the grammar runs.

    Placeholder fragments ("XXXX", "to be updated") make it a placeholder,
    which is never valid.
    """
    value = strip_identifier_prefix(kind, value)
    syntax, normalized = _apply_grammar(kind, value)
    return Identifier(kind=kind, value=value, syntax=syntax, normalized=normalized)


_TO_BE_UPDATED_RE = re.compile(r"to be updated", re.IGNORECASE)
_TO_APPEAR_RE = re.compile(r"\bto appear\b", re.IGNORECASE)


def scan_placeholders(citation: ParsedCitation) -> list[EvidenceItem]:
    """Collect placeholder evidence across authors, title, raw text, and ids.

    "To appear" alone is not evidence when the citation carries a
    syntactically valid identifier; legitimate preprints say it too.
    """
    evidence: list[EvidenceItem] = []

    for author in citation.authors:
        if author.is_placeholder and author.raw.strip():
            evidence.append(
                EvidenceItem(
                    mode=FailureMode.PH,
                    detail=f"template author name {author.raw!r} never filled in",
                    field="authors",
                )
            )

    if not citation.title.strip():
        evidence.append(
            EvidenceItem(
                mode=FailureMode.PH,
                detail="citation has no title",
                field="title",
            )
        )

    if _TO_BE_UPDATED_RE.search(citation.raw_text):
        evidence.append(
            EvidenceItem(
                mode=FailureMode.PH,
                detail='citation text says "to be updated"',
                field="raw_text",
            )
        )

    has_valid_identifier = any(i.syntactically_valid for i in citation.identifiers)
    if _TO_APPEAR_RE.search(citation.raw_text) and not has_valid_identifier:
        evidence.append(
            EvidenceItem(
                mode=FailureMode.PH,
                detail='"to appear" with no identifier to locate the work',
                field="raw_text",
            )
        )

    for identifier in citation.identifiers:
        if identifier.syntax is IdentifierSyntax.PLACEHOLDER:
            evidence.append(
                EvidenceItem(
                    mode=FailureMode.PH,
                    detail=f"placeholder identifier {identifier.value!r}",
                    field="identifiers",
                )
            )

    return evidence


# --- free-text identifier extraction (used by the parsers) -----------------

_DOI_IN_TEXT_RE = re.compile(
    r"(?:doi:\s*|(?:https?://)?(?:dx\.)?doi\.org/)(\S+)|(?<![\w./])(10\.\d{4,9}(?:\.\d+)*/\S+)",
    re.IGNORECASE,
)
_ARXIV_IN_TEXT_RE = re.compile(
    r"(?:arxiv:\s*|(?:https?://)?arxiv\.org/(?:abs|pdf)/)([^\s,;]+)", re.IGNORECASE
)
_URL_IN_TEXT_RE = re.compile(r"https?://[^\s<>\"]+", re.IGNORECASE)

_TRAILING_PUNCT_RE = re.compile(r"[.,;:)\]]+$")


def _clean(value: str) -> str:
    return _TRAILING_PUNCT_RE.sub("", value.strip())


# Each free-text form, with the kind of identifier it claims and the marks
# every match holds one of, lowercased. The value is the last group that
# matched: the whole match for a URL.
_IN_TEXT = (
    (_DOI_IN_TEXT_RE, IdentifierKind.DOI, ("doi", "10.")),
    (_ARXIV_IN_TEXT_RE, IdentifierKind.ARXIV, ("arxiv",)),
    (_URL_IN_TEXT_RE, IdentifierKind.URL, ("http",)),
)


def scan_identifiers(text: str) -> tuple[list[Identifier], list[tuple[int, int]]]:
    """Scan free text once for doi:/arXiv:/http identifiers.

    Returns the identifiers, deduplicated, and the character span of every
    identifier-looking run, so field heuristics can avoid matching years or
    titles inside them. A DOI-shaped URL yields both the URL and the DOI;
    duplicates collapse through dedupe_identifiers, so redundant forms count
    once.
    """
    found: list[Identifier] = []
    spans: list[tuple[int, int]] = []
    # A form is skipped when the text holds none of its marks. Only ASCII
    # text is checked so: under IGNORECASE "ı" and "İ" also match "i".
    lowered = text.lower() if text.isascii() else None
    for rx, kind, marks in _IN_TEXT:
        if lowered is not None and not any(mark in lowered for mark in marks):
            continue
        for m in rx.finditer(text):
            spans.append(m.span())
            value = _clean(m.group(m.lastindex or 0))
            if value:
                found.append(make_identifier(kind, value))
    return dedupe_identifiers(found), spans


def extract_identifiers(text: str) -> list[Identifier]:
    """The identifiers scan_identifiers finds in free text."""
    return scan_identifiers(text)[0]


def dedupe_identifiers(found: list[Identifier]) -> list[Identifier]:
    """The first of each set of identifiers with the same kind and
    normalized value (the lowercased value when invalid), in input order:
    "1706.03762v5" and "arXiv:1706.03762" are one id."""
    deduped: dict[tuple[IdentifierKind, str], Identifier] = {}
    for ident in found:
        deduped.setdefault((ident.kind, ident.normalized or ident.value.lower()), ident)
    return list(deduped.values())

