"""Writers and readers that invert the parsers and serializers, for round-trip tests.

Nothing in citeaudit writes citations back out or reads a summary or a
verdict in, so these live with the tests that check the parsers,
dataclasses.asdict of a summary and verdict_to_dict against them.
"""
from __future__ import annotations

import json

from citeaudit.analytics import DistributionSummary
from citeaudit.model import (
    AuthorName,
    EvidenceItem,
    FailureMode,
    IdentifierKind,
    ParsedCitation,
    Verdict,
    VerdictStatus,
    _name_tokens,
    verdict_to_dict,
)
from citeaudit.parsing import FORMAT_BIBTEX, FORMAT_PLAINTEXT
from citeaudit.resolve import _decode_record


def reassembled(author: AuthorName) -> str:
    """Canonical "given... surname" rendering; input to re-normalization."""
    if author.is_placeholder:
        return " ".join(_name_tokens(author.raw)) or author.raw
    return " ".join((*author.given_tokens, author.surname))


def _bib_escape(value: str) -> str:
    return value.replace("{", "").replace("}", "")


def render_bibtex(citations: list[ParsedCitation] | tuple[ParsedCitation, ...]) -> str:
    """Write citations back out as deterministic BibTeX.

    Round-trip contract: parsing the output yields the same semantic fields
    (authors, title, venue, year, volume, issue, pages, identifiers, keys).
    """
    chunks: list[str] = []
    for c in citations:
        entry_type = "article" if c.venue else "misc"
        lines = [f"@{entry_type}{{{c.source_key},"]
        if c.authors:
            joined = " and ".join(reassembled(a) for a in c.authors)
            lines.append(f"  author = {{{_bib_escape(joined)}}},")
        if c.title:
            lines.append(f"  title = {{{_bib_escape(c.title)}}},")
        if c.venue:
            lines.append(f"  journal = {{{_bib_escape(c.venue)}}},")
        if c.year is not None:
            lines.append(f"  year = {{{c.year}}},")
        if c.volume:
            lines.append(f"  volume = {{{_bib_escape(c.volume)}}},")
        if c.issue:
            lines.append(f"  number = {{{_bib_escape(c.issue)}}},")
        if c.pages:
            lines.append(f"  pages = {{{_bib_escape(c.pages)}}},")
        for ident in c.identifiers:
            if ident.kind is IdentifierKind.DOI:
                lines.append(f"  doi = {{{ident.value}}},")
            elif ident.kind is IdentifierKind.ARXIV:
                lines.append(f"  eprint = {{{ident.value}}},")
                lines.append("  archiveprefix = {arXiv},")
            else:
                lines.append(f"  url = {{{ident.value}}},")
        if lines[-1].endswith(","):
            lines[-1] = lines[-1][:-1]
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def render_plaintext(
    citations: list[ParsedCitation] | tuple[ParsedCitation, ...]
) -> str:
    """Write citations as a numbered plain-text list, one entry per line."""
    out = []
    for i, c in enumerate(citations, start=1):
        pieces = []
        if c.authors:
            pieces.append(", ".join(reassembled(a) for a in c.authors) + ".")
        if c.title:
            pieces.append(c.title.rstrip(".") + ".")
        tail = []
        if c.venue:
            tail.append(c.venue)
        if c.volume and c.issue and c.pages:
            tail.append(f"{c.volume}({c.issue}), {c.pages}")
        elif c.volume and c.pages:
            tail.append(f"{c.volume}:{c.pages}")
        elif c.volume:
            tail.append(f"vol. {c.volume}")
        elif c.pages:
            tail.append(f"pp. {c.pages}")
        if c.year is not None:
            tail.append(str(c.year))
        if tail:
            pieces.append(", ".join(tail) + ".")
        for ident in c.identifiers:
            if ident.kind is IdentifierKind.ARXIV:
                pieces.append(f"arXiv:{ident.value}")
            elif ident.kind is IdentifierKind.DOI:
                pieces.append(f"doi:{ident.value}")
            else:
                pieces.append(ident.value)
        out.append(f"[{i}] " + " ".join(pieces).strip())
    return "\n".join(out) + ("\n" if out else "")


def render(citations, format: str) -> str:
    """Serialize citations back to the named format."""
    if format == FORMAT_BIBTEX:
        return render_bibtex(citations)
    if format == FORMAT_PLAINTEXT:
        return render_plaintext(citations)
    raise ValueError(f"unknown reference format {format!r}")


def semantic_fields(citation: ParsedCitation) -> dict:
    """The comparison view used for round-trip checks: everything that
    matters for verification, nothing positional (raw text, spans)."""
    return {
        "source_key": citation.source_key,
        "authors": tuple(
            (a.surname, a.given_tokens, a.is_placeholder) for a in citation.authors
        ),
        "title": citation.title,
        "venue": citation.venue,
        "year": citation.year,
        "volume": citation.volume,
        "issue": citation.issue,
        "pages": citation.pages,
        "identifiers": tuple(
            (i.kind.value, i.value, i.syntactically_valid) for i in citation.identifiers
        ),
    }


def summary_from_dict(d: dict) -> DistributionSummary:
    """Inverse of dataclasses.asdict of a DistributionSummary."""
    return DistributionSummary(
        n_citations=d["n_citations"],
        n_papers=d["n_papers"],
        primary_counts=dict(d["primary_counts"]),
        secondary_counts=dict(d["secondary_counts"]),
        per_paper=dict(d["per_paper"]),
        mean_per_paper=d["mean_per_paper"],
        median_per_paper=d["median_per_paper"],
        min_per_paper=d["min_per_paper"],
        max_per_paper=d["max_per_paper"],
        buckets=dict(d["buckets"]),
        compound_rate=d["compound_rate"],
    )


def verdict_from_dict(d: dict) -> Verdict:
    return Verdict(
        status=VerdictStatus(d["status"]),
        citation_key=d.get("citation_key", ""),
        primary=FailureMode.parse(d["primary"]) if d.get("primary") else None,
        secondary=FailureMode.parse(d["secondary"]) if d.get("secondary") else None,
        cause=d.get("cause"),
        evidence=tuple(
            EvidenceItem(
                mode=FailureMode.parse(e["mode"]),
                detail=e["detail"],
                field=e.get("field"),
                score=e.get("score"),
            )
            for e in d.get("evidence", ())
        ),
        matched_record=(
            _decode_record(d["matched_record"], "") if d.get("matched_record") else None
        ),
    )


def serialize_verdict(verdict: Verdict) -> str:
    """Render a verdict as a stable-key-order JSON object."""
    return json.dumps(verdict_to_dict(verdict), ensure_ascii=False)


def parse_verdict(text: str) -> Verdict:
    """Inverse of serialize_verdict; unknown keys are ignored."""
    return verdict_from_dict(json.loads(text))
