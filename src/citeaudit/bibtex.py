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
_AUTHOR_SPLIT_RE = re.compile(r"[{}]|\s+and\s+", re.IGNORECASE)

# Month macros every BibTeX style predefines.
_MONTHS = {
    "jan": "January", "feb": "February", "mar": "March", "apr": "April",
    "may": "May", "jun": "June", "jul": "July", "aug": "August",
    "sep": "September", "oct": "October", "nov": "November", "dec": "December",
}

# A letter accent (\u, \v, \H, ...) is a whole command name: \textbf and
# \bf are other commands, not \t and \b before a letter.
_ACCENT_RE = re.compile(
    r"\\(?:[`'\"^~=.]|[uvHtcdbkr](?![A-Za-z]))\s*\{?\s*(\\?[A-Za-z])\s*\}?"
)
_COMMAND_RE = re.compile(r"\\([A-Za-z]+)\s*")
# Commands that typeset a letter, as the ASCII letters fold_diacritics folds
# that letter to, case kept. Every other command is dropped.
_LETTERS = {
    "o": "o", "O": "O", "l": "l", "L": "L", "i": "i", "j": "j", "ss": "ss",
    "aa": "a", "AA": "A", "ae": "ae", "AE": "AE", "oe": "oe", "OE": "OE",
}
_ESCAPED_RE = re.compile(r"\\([&%$#_{}])")


def _strip_latex(value: str) -> str:
    """Fold accent and letter commands to ASCII letters, drop other commands
    and grouping braces."""
    value = _ACCENT_RE.sub(lambda m: m.group(1).lstrip("\\"), value)
    value = _ESCAPED_RE.sub(lambda m: m.group(1), value)
    value = _COMMAND_RE.sub(lambda m: _LETTERS.get(m.group(1), ""), value)
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


def _read_group(sc: _Scanner, closer: str) -> str:
    """Read a delimited group; the cursor sits on its opener. {...} and (...)
    nest their own delimiters, "..." nests braces, and a backslash escapes
    the next character. Returns the text between the delimiters."""
    text, start = sc.text, sc.pos
    opener = sc.peek()
    nest_open, nest_close = ("{", "}") if opener == '"' else (opener, closer)
    depth = 0
    pos = start + 1
    while pos < len(text):
        ch = text[pos]
        if ch == "\\":
            pos += 2
            continue
        if ch == closer and depth == 0:
            sc.pos = pos + 1
            return text[start + 1 : pos]
        if ch == nest_open:
            depth += 1
        elif ch == nest_close:
            depth -= 1
        pos += 1
    raise BibtexError(f"unterminated {opener}...{closer} group", start)


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
        if ch in ("{", '"'):
            parts.append(_read_group(sc, "}" if ch == "{" else '"'))
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


def _read_assignment(
    sc: _Scanner,
    macros: dict[str, str],
    warnings: list[ParseWarning],
) -> tuple[str, str]:
    """Read `name = value`, for a field or a @string macro; the cursor sits
    on the name. Returns the lowercased name and the value."""
    m = _FIELD_NAME_RE.match(sc.text, sc.pos)
    if not m:
        raise BibtexError(f"expected a field name, found {sc.peek()!r}", sc.pos)
    name = m.group(0).lower()
    sc.pos = m.end()
    sc.skip_ws()
    if sc.peek() != "=":
        raise BibtexError(f"{name!r} missing '='", sc.pos)
    sc.pos += 1
    return name, _read_value(sc, macros, warnings)


def _split_authors(value: str) -> list[str]:
    """Split an author field at "and" between whitespace, outside braces."""
    names: list[str] = []
    depth = start = 0
    for m in _AUTHOR_SPLIT_RE.finditer(value):
        if m.group(0) == "{":
            depth += 1
        elif m.group(0) == "}":
            depth = max(0, depth - 1)
        elif depth == 0:
            names.append(value[start : m.start()])
            start = m.end()
    names.append(value[start:])
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
                _read_group(sc, closer)
                continue
            sc.pos += 1
            sc.skip_ws()
            if entry_type == "string":
                name, macros[name] = _read_assignment(sc, macros, warnings)
                sc.skip_ws()
                if sc.peek() == closer:
                    sc.pos += 1
                continue

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
                name, fields[name] = _read_assignment(sc, macros, warnings)

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

    return ParsedCitation(
        source_key=key,
        raw_text=raw_entry,
        authors=authors,
        title=_strip_latex(fields.get("title", "")),
        year=year,
        pages=_strip_latex(fields["pages"]) if "pages" in fields else None,
        identifiers=_entry_identifiers(fields),
    )
