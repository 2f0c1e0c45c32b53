"""Format detection and the single entry point for reading reference lists."""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .model import ParsedCitation, ParseWarning

FORMAT_BIBTEX = "bibtex"
FORMAT_PLAINTEXT = "plaintext"

_BIB_ENTRY_RE = re.compile(r"@[A-Za-z]+\s*[{(]")


@dataclass(frozen=True)
class ParseReport:
    """Everything learned from one input: citations in source order plus
    warnings for anything skipped or repaired."""

    citations: tuple[ParsedCitation, ...]
    warnings: tuple[ParseWarning, ...]
    format: str


def detect_format(text: str, filename: str | None = None) -> str:
    if filename and filename.lower().endswith((".bib", ".bibtex")):
        return FORMAT_BIBTEX
    if _BIB_ENTRY_RE.search(text):
        return FORMAT_BIBTEX
    return FORMAT_PLAINTEXT


def parse_text(text: str, format: str = "auto", filename: str | None = None) -> ParseReport:
    """Parse a reference list held in a string.

    format: "auto", "bibtex", or "plaintext". Only that format's reader
    is imported.
    """
    if format == "auto":
        format = detect_format(text, filename)
    if format == FORMAT_BIBTEX:
        from .bibtex import parse_bibtex

        citations, warnings = parse_bibtex(text)
    elif format == FORMAT_PLAINTEXT:
        from .plaintext import parse_plaintext

        citations, warnings = parse_plaintext(text)
    else:
        raise ValueError(f"unknown reference format {format!r}")
    return ParseReport(
        citations=tuple(citations), warnings=tuple(warnings), format=format
    )


def parse_file(path: str | Path, format: str = "auto") -> ParseReport:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return parse_text(text, format=format, filename=path.name)
