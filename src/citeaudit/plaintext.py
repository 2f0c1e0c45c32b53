"""Heuristic parser for plain-text reference lists.

Handles numbered lists ("[12] ..." or "12. ..."), blank-line separated
blocks, author-year (APA-like) entries, and initials-first numeric entries.
Entries that defeat the heuristics are kept as raw text with a warning, so
nothing in the input is silently dropped.
"""
from __future__ import annotations

import re

from .identifiers import scan_identifiers
from .model import (
    AuthorName,
    ParsedCitation,
    ParseWarning,
    Span,
    normalize_name,
)

_BRACKET_MARK_RE = re.compile(r"^\s*\[(\d+)\]\s*")
_NUMBER_MARK_RE = re.compile(r"^\s*(\d{1,3})\.\s+")

_PAREN_YEAR_RE = re.compile(r"\(((?:19|20)\d{2})[a-z]?\)\s*\.?")
_YEAR_TOKEN_RE = re.compile(r"\b((?:19|20)\d{2})\b")

# Words that legitimately end in a period mid-sentence.
_NON_BREAKING = frozenset({"vs", "Jr", "Sr", "St", "Mt", "Dr", "Mr", "Ms", "Mrs"})
_INITIAL_WORD_RE = re.compile(r"[A-Z](?:[.\- ]*[A-Z])*\.?$")

# Each pattern captures the page range as group 1.
_VOL_COLON_RE = re.compile(r"\b\d{1,4}\s*(?:\(\d{1,4}\))?\s*:\s*(\d{1,6}(?:\s*[-‐-―−]+\s*\d{1,6})?)")
_VOL_PAREN_RE = re.compile(r"\b\d{1,4}\s*\(\d{1,4}\)\s*,\s*(\d{1,6}(?:\s*[-‐-―−]+\s*\d{1,6})?)")
_PAGES_WORD_RE = re.compile(r"\bpp?\.\s*(\d{1,6}(?:\s*[-‐-―−]+\s*\d{1,6})?)")
_PAGES_BARE_RE = re.compile(r"\b(\d{1,5}\s*[-‐-―−]{1,2}\s*\d{1,5})\b")


def _mask(flat: str, spans: list[tuple[int, int]]) -> str:
    """Blank out the identifier-looking runs at spans so field heuristics
    skip them."""
    chars = list(flat)
    for start, end in spans:
        for i in range(start, end):
            chars[i] = " "
    return "".join(chars)


def _sentence_break(masked: str, start: int) -> int:
    """Offset just past the first sentence-ending period at or after start.

    Periods trailing a single initial ("J.", "M.-W.") or a known
    abbreviation do not end the sentence. Returns -1 when none is found.
    """
    for m in re.finditer(r"\.(?=\s|$)", masked):
        if m.start() < start:
            continue
        before = masked[: m.start()]
        word_m = re.search(r"(\S+)$", before)
        if word_m:
            word = word_m.group(1)
            if _INITIAL_WORD_RE.fullmatch(word):
                continue
            if word.rstrip(".,") in _NON_BREAKING:
                continue
        return m.end()
    return -1


_INITIALS_ONLY_RE = re.compile(r"(?:[A-Z]\.?\s*[-‐]?\s*)+$")
_ET_AL_RE = re.compile(r"\bet\s+al\.?", re.IGNORECASE)


def _parse_author_list(segment: str) -> tuple[AuthorName, ...]:
    segment = _ET_AL_RE.sub("", segment)
    segment = segment.replace("&", " and ")
    segment = segment.strip().strip(".,;").strip()
    if not segment:
        return ()

    parts: list[str] = []
    for chunk in re.split(r"\s+and\s+", segment):
        pieces = [p.strip() for p in chunk.split(",")]
        pieces = [p for p in pieces if p]
        rebuilt: list[str] = []
        for piece in pieces:
            bare = piece.rstrip(".")
            if rebuilt and _INITIALS_ONLY_RE.fullmatch(piece) and len(bare) <= 8:
                rebuilt[-1] = f"{rebuilt[-1]}, {piece}"
            else:
                rebuilt.append(piece)
        parts.extend(rebuilt)

    names = []
    for part in parts:
        cleaned = part.strip().strip(".,;").strip()
        if cleaned:
            names.append(normalize_name(cleaned))
    return tuple(names)


def _extract_pages(masked_seg: str) -> str | None:
    """Pick the page range out of a venue segment: a volume's colon or
    parenthesized-issue form first, then "pp.", then a bare range that
    does not start with a year."""
    m = (
        _VOL_COLON_RE.search(masked_seg)
        or _VOL_PAREN_RE.search(masked_seg)
        or _PAGES_WORD_RE.search(masked_seg)
    )
    if m is None:
        m = _PAGES_BARE_RE.search(masked_seg)
        if not m or _YEAR_TOKEN_RE.match(m.group(1)):
            return None
    return re.sub(r"\s+", "", m.group(1))


def _extract_fields(
    key: str, raw_text: str, span: Span, warnings: list[ParseWarning]
) -> ParsedCitation:
    flat = " ".join(raw_text.split())
    found, spans = scan_identifiers(flat)
    identifiers = tuple(found)
    masked = _mask(flat, spans)

    # The author block ends at a parenthesized year, or else at the first
    # sentence break; the title runs to the next break, and the pages come
    # from the segment after it.
    apa = _PAREN_YEAR_RE.search(masked)
    if apa:
        year = int(apa.group(1))
        authors_end, title_start = apa.start(), apa.end()
    else:
        years = _YEAR_TOKEN_RE.findall(masked)
        year = int(years[-1]) if years else None
        title_start = _sentence_break(masked, 0)
        authors_end = title_start - 1

    authors: tuple[AuthorName, ...] = ()
    title = ""
    pages = None
    if title_start > 0:
        authors = _parse_author_list(flat[:authors_end])
        title_end = _sentence_break(masked, title_start)
        if title_end < 0:
            title = flat[title_start:].strip().strip(".")
        else:
            title = flat[title_start : title_end - 1].strip()
            pages = _extract_pages(masked[title_end:])

    if not authors and not title:
        warnings.append(
            ParseWarning(
                message=f"entry {key!r}: could not extract fields, keeping raw text",
                span=span,
            )
        )
        return ParsedCitation(
            source_key=key,
            raw_text=raw_text,
            identifiers=identifiers,
        )

    return ParsedCitation(
        source_key=key,
        raw_text=raw_text,
        authors=authors,
        title=title,
        year=year,
        pages=pages,
        identifiers=identifiers,
    )


def _segment(lines: list[str]) -> list[tuple[str, int, int]]:
    """Split input lines into entries: (key, first_line_idx, last_line_idx)."""
    bracket_hits = [
        (i, _BRACKET_MARK_RE.match(line)) for i, line in enumerate(lines)
    ]
    bracket_hits = [(i, m) for i, m in bracket_hits if m]
    if bracket_hits:
        return _marker_entries(lines, bracket_hits)

    number_hits = [(i, _NUMBER_MARK_RE.match(line)) for i, line in enumerate(lines)]
    number_hits = [(i, m) for i, m in number_hits if m]
    if len(number_hits) >= 2:
        numbers = [int(m.group(1)) for _, m in number_hits]
        if numbers[0] <= 2 and all(b > a for a, b in zip(numbers, numbers[1:])):
            return _marker_entries(lines, number_hits)

    entries: list[tuple[str, int, int]] = []
    start = None
    for i, line in enumerate(lines):
        if line.strip():
            if start is None:
                start = i
        elif start is not None:
            entries.append((str(len(entries) + 1), start, i - 1))
            start = None
    if start is not None:
        entries.append((str(len(entries) + 1), start, len(lines) - 1))
    return entries


def _marker_entries(
    lines: list[str], hits: list[tuple[int, re.Match]]
) -> list[tuple[str, int, int]]:
    entries = []
    for idx, (line_idx, m) in enumerate(hits):
        end = (hits[idx + 1][0] - 1) if idx + 1 < len(hits) else len(lines) - 1
        while end > line_idx and not lines[end].strip():
            end -= 1
        entries.append((m.group(1), line_idx, end))
    return entries


def parse_plaintext(text: str) -> tuple[list[ParsedCitation], list[ParseWarning]]:
    lines = text.split("\n")
    warnings: list[ParseWarning] = []
    citations: list[ParsedCitation] = []

    for key, start, end in _segment(lines):
        raw_lines = lines[start : end + 1]
        raw_text = "\n".join(raw_lines)
        stripped = _BRACKET_MARK_RE.sub("", raw_text, count=1)
        if stripped == raw_text:
            stripped = _NUMBER_MARK_RE.sub("", raw_text, count=1)
        span = Span(
            start_line=start + 1,
            start_col=1,
            end_line=end + 1,
            end_col=max(1, len(lines[end])),
        )
        citations.append(_extract_fields(key, stripped, span, warnings))

    return citations, warnings
