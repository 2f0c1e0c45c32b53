"""Hand-rolled BibTeX reader.

Reads the common subset: @entry{key, field = {value} | "value" | bare, ...},
@string macros with # concatenation, @comment and @preamble blocks. Malformed
entries produce a warning and the scanner resynchronizes at the next "@"
rather than aborting the file.
"""
from __future__ import annotations

import bisect
import re

from .identifiers import dedupe_identifiers, extract_identifiers, make_identifier
from .model import (
    Identifier,
    IdentifierKind,
    ParsedCitation,
    ParseWarning,
    Span,
    normalize_name,
)

_ENTRY_TYPE_RE = re.compile(r"[A-Za-z]+")
_FIELD_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_:\-]*")
_KEY_RE = re.compile(r"[^\s,{}()]+")
_BARE_VALUE_RE = re.compile(r"[^\s,#(){}]+")

# Month macros every BibTeX style predefines.
_MONTHS = {
    "jan": "January", "feb": "February", "mar": "March", "apr": "April",
    "may": "May", "jun": "June", "jul": "July", "aug": "August",
    "sep": "September", "oct": "October", "nov": "November", "dec": "December",
}

_ACCENT_RE = re.compile(r"\\[`'\"^~=.uvHtcdbkr]\s*\{?\s*(\\?[A-Za-z])\s*\}?")
_COMMAND_RE = re.compile(r"\\[A-Za-z]+\s*")
_ESCAPED_RE = re.compile(r"\\([&%$#_{}])")


def _strip_latex(value: str) -> str:
    """Fold accent commands to their base letter and drop grouping braces."""
    value = _ACCENT_RE.sub(lambda m: m.group(1).lstrip("\\"), value)
    value = _ESCAPED_RE.sub(lambda m: m.group(1), value)
    value = value.replace(r"\ss", "ss")
    value = _COMMAND_RE.sub("", value)
    value = value.replace("{", "").replace("}", "")
    value = value.replace("~", " ")
    return re.sub(r"\s+", " ", value).strip()


class _Scanner:
    """Cursor over the raw file with line bookkeeping."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._line_starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def location(self, pos: int) -> tuple[int, int]:
        line = bisect.bisect_right(self._line_starts, pos) - 1
        return line + 1, pos - self._line_starts[line] + 1

    def span(self, start: int, end: int) -> Span:
        sl, sc = self.location(start)
        el, ec = self.location(max(start, end - 1))
        return Span(sl, sc, el, ec)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


class BibtexError(Exception):
    """Unrecoverable problem inside one entry; the caller resynchronizes."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


def _read_braced(sc: _Scanner) -> str:
    """Read a {...} group with nesting; cursor sits on the opening brace."""
    assert sc.peek() == "{"
    start = sc.pos
    depth = 0
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "\\" and sc.pos + 1 < len(sc.text):
            sc.pos += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                sc.pos += 1
                return sc.text[start + 1 : sc.pos - 1]
        sc.pos += 1
    raise BibtexError("unterminated brace group", start)


def _read_quoted(sc: _Scanner) -> str:
    assert sc.peek() == '"'
    start = sc.pos
    sc.pos += 1
    depth = 0
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "\\" and sc.pos + 1 < len(sc.text):
            sc.pos += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == '"' and depth == 0:
            sc.pos += 1
            return sc.text[start + 1 : sc.pos - 1]
        sc.pos += 1
    raise BibtexError("unterminated quoted string", start)


def _read_value(
    sc: _Scanner,
    macros: dict[str, str],
    warnings: list[ParseWarning],
) -> str:
    """Read one field value: literals and macro names joined by '#'."""
    parts: list[str] = []
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "{":
            parts.append(_read_braced(sc))
        elif ch == '"':
            parts.append(_read_quoted(sc))
        else:
            m = _BARE_VALUE_RE.match(sc.text, sc.pos)
            if not m:
                raise BibtexError("expected a field value", sc.pos)
            token = m.group(0)
            sc.pos += len(token)
            lowered = token.lower()
            if lowered in macros:
                parts.append(macros[lowered])
            elif token.isdigit():
                parts.append(token)
            else:
                warnings.append(
                    ParseWarning(
                        message=f"unknown string macro {token!r} used literally",
                        span=sc.span(sc.pos - len(token), sc.pos),
                    )
                )
                parts.append(token)
        sc.skip_ws()
        if sc.peek() == "#":
            sc.pos += 1
            continue
        return "".join(parts)


def _split_authors(value: str) -> list[str]:
    """Split an author field on top-level ' and '."""
    names: list[str] = []
    depth = 0
    token = []
    i = 0
    lowered = value.lower()
    while i < len(value):
        ch = value[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
        if depth == 0 and lowered.startswith(" and ", i):
            names.append("".join(token))
            token = []
            i += 5
            continue
        token.append(ch)
        i += 1
    names.append("".join(token))
    return [n.strip() for n in names if n.strip()]


def _entry_identifiers(fields: dict[str, str]) -> tuple[Identifier, ...]:
    found: list[Identifier] = []
    if "doi" in fields:
        found.append(make_identifier(IdentifierKind.DOI, fields["doi"]))
    if "eprint" in fields:
        prefix = (fields.get("archiveprefix") or fields.get("eprinttype") or "").lower()
        if prefix in ("", "arxiv"):
            found.append(make_identifier(IdentifierKind.ARXIV, fields["eprint"]))
    if "url" in fields:
        found.append(make_identifier(IdentifierKind.URL, fields["url"]))
    for free_field in ("note", "howpublished"):
        if free_field in fields:
            found.extend(extract_identifiers(fields[free_field]))
    return tuple(dedupe_identifiers(found))


def parse_bibtex(text: str) -> tuple[list[ParsedCitation], list[ParseWarning]]:
    sc = _Scanner(text)
    macros = dict(_MONTHS)
    citations: list[ParsedCitation] = []
    warnings: list[ParseWarning] = []
    entry_counter = 0

    while not sc.eof():
        at = sc.text.find("@", sc.pos)
        if at < 0:
            break
        sc.pos = at + 1
        m = _ENTRY_TYPE_RE.match(sc.text, sc.pos)
        if not m:
            warnings.append(
                ParseWarning(
                    message="stray '@' with no entry type",
                    span=sc.span(at, at + 1),
                )
            )
            continue
        entry_type = m.group(0).lower()
        sc.pos += len(m.group(0))

        try:
            sc.skip_ws()
            opener = sc.peek()
            if opener not in "{(":
                raise BibtexError(f"expected '{{' after @{entry_type}", sc.pos)
            closer = "}" if opener == "{" else ")"

            if entry_type in ("comment", "preamble"):
                _read_braced(sc) if opener == "{" else _skip_paren(sc)
                continue
            if entry_type == "string":
                sc.pos += 1
                sc.skip_ws()
                name_m = _FIELD_NAME_RE.match(sc.text, sc.pos)
                if not name_m:
                    raise BibtexError("@string needs a macro name", sc.pos)
                name = name_m.group(0).lower()
                sc.pos += len(name_m.group(0))
                sc.skip_ws()
                if sc.peek() != "=":
                    raise BibtexError("@string needs '='", sc.pos)
                sc.pos += 1
                macros[name] = _read_value(sc, macros, warnings)
                sc.skip_ws()
                if sc.peek() == closer:
                    sc.pos += 1
                continue

            sc.pos += 1
            sc.skip_ws()
            key_m = _KEY_RE.match(sc.text, sc.pos)
            entry_counter += 1
            if key_m:
                key = key_m.group(0)
                sc.pos += len(key_m.group(0))
            else:
                key = f"entry-{entry_counter}"
                warnings.append(
                    ParseWarning(
                        message=f"entry without a citation key, using {key!r}",
                        span=sc.span(at, sc.pos),
                    )
                )
            fields: dict[str, str] = {}
            while True:
                sc.skip_ws()
                if sc.peek() == ",":
                    sc.pos += 1
                    continue
                if sc.peek() == closer:
                    sc.pos += 1
                    break
                if sc.eof():
                    raise BibtexError("entry never closed", at)
                fm = _FIELD_NAME_RE.match(sc.text, sc.pos)
                if not fm:
                    raise BibtexError(
                        f"expected a field name, found {sc.peek()!r}", sc.pos
                    )
                fname = fm.group(0).lower()
                sc.pos += len(fm.group(0))
                sc.skip_ws()
                if sc.peek() != "=":
                    raise BibtexError(f"field {fname!r} missing '='", sc.pos)
                sc.pos += 1
                fields[fname] = _read_value(sc, macros, warnings)

            raw_entry = sc.text[at : sc.pos]
            span = sc.span(at, sc.pos)
            citations.append(
                _build_citation(key, raw_entry, fields, span, warnings)
            )
        except BibtexError as err:
            warnings.append(
                ParseWarning(
                    message=f"malformed @{entry_type} entry: {err}",
                    span=sc.span(at, min(err.pos + 1, len(sc.text))),
                )
            )
            # Resync right after this entry's "@": a runaway value (for
            # example an unterminated brace) may have swallowed later
            # entries, and those are recoverable.
            nxt = sc.text.find("@", at + 1)
            sc.pos = nxt if nxt >= 0 else len(sc.text)

    return citations, warnings


def _skip_paren(sc: _Scanner) -> None:
    """Skip a (...) block for @comment/@preamble written with parentheses."""
    depth = 0
    start = sc.pos
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                sc.pos += 1
                return
        sc.pos += 1
    raise BibtexError("unterminated block", start)


def _build_citation(
    key: str,
    raw_entry: str,
    fields: dict[str, str],
    span: Span,
    warnings: list[ParseWarning],
) -> ParsedCitation:
    authors = tuple(
        normalize_name(_strip_latex(name))
        for name in _split_authors(fields.get("author", ""))
    )

    year = None
    if "year" in fields:
        year_text = _strip_latex(fields["year"])
        if re.fullmatch(r"\d{4}", year_text):
            year = int(year_text)
        elif re.fullmatch(r"\d{1,3}", year_text):
            warnings.append(
                ParseWarning(
                    message=f"entry {key!r}: year {year_text!r} is not four digits",
                    span=span,
                )
            )
        else:
            m = re.search(r"\b(1[5-9]\d\d|20\d\d)\b", year_text)
            if m:
                year = int(m.group(0))
            else:
                warnings.append(
                    ParseWarning(
                        message=f"entry {key!r}: unparseable year {year_text!r}",
                        span=span,
                    )
                )

    venue = fields.get("journal") or fields.get("booktitle") or ""
    return ParsedCitation(
        source_key=key,
        raw_text=raw_entry,
        authors=authors,
        title=_strip_latex(fields.get("title", "")),
        venue=_strip_latex(venue),
        year=year,
        volume=_strip_latex(fields["volume"]) if "volume" in fields else None,
        issue=_strip_latex(fields["number"]) if "number" in fields else None,
        pages=_strip_latex(fields["pages"]) if "pages" in fields else None,
        identifiers=_entry_identifiers(fields),
        source_span=span,
    )
