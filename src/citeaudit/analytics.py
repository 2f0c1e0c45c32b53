"""Statistics over coded citation datasets.

A coded corpus is a CSV of manually labeled hallucinated citations:
paper_id, citation_text, primary, secondary, notes. The loader validates
every row and reports all problems at once rather than dying on the first.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import asdict, dataclass
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

from .model import FailureMode

EXPECTED_HEADER = ["paper_id", "citation_text", "primary", "secondary", "notes"]

BUCKET_LABELS = ("1-2", "3-6", "7+")


class CorpusError(Exception):
    """Raised when a coded corpus fails validation; carries every problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        preview = "; ".join(self.errors[:3])
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        super().__init__(f"invalid corpus: {preview}{more}")


@dataclass(frozen=True)
class CodedRow:
    """One manually labeled citation. Both codes are required; coders may
    assign the same code twice, which simply counts as non-compound."""

    paper_id: str
    citation_text: str
    primary: FailureMode
    secondary: FailureMode
    notes: str = ""


def parse_corpus(text: str) -> list[CodedRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError(["file is empty"]) from None
    if header != EXPECTED_HEADER:
        raise CorpusError(
            [f"header must be {','.join(EXPECTED_HEADER)}, got {','.join(header)}"]
        )

    rows: list[CodedRow] = []
    errors: list[str] = []
    for lineno, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        if len(fields) != len(EXPECTED_HEADER):
            errors.append(
                f"row {lineno}: expected {len(EXPECTED_HEADER)} columns, got {len(fields)}"
            )
            continue
        paper_id, citation_text, primary_text, secondary_text, notes = (
            f.strip() for f in fields
        )
        row_errors = []
        if not paper_id:
            row_errors.append(f"row {lineno}, column paper_id: must not be empty")
        if not citation_text:
            row_errors.append(f"row {lineno}, column citation_text: must not be empty")
        primary = None
        try:
            primary = FailureMode.parse(primary_text)
        except ValueError:
            row_errors.append(
                f"row {lineno}, column primary: unknown failure mode {primary_text!r}"
            )
        secondary = None
        if not secondary_text:
            row_errors.append(f"row {lineno}, column secondary: must not be empty")
        else:
            try:
                secondary = FailureMode.parse(secondary_text)
            except ValueError:
                row_errors.append(
                    f"row {lineno}, column secondary: unknown failure mode"
                    f" {secondary_text!r}"
                )
        if row_errors:
            errors.extend(row_errors)
            continue
        rows.append(
            CodedRow(
                paper_id=paper_id,
                citation_text=citation_text,
                primary=primary,
                secondary=secondary,
                notes=notes,
            )
        )
    if errors:
        raise CorpusError(errors)
    return rows


def load_corpus(path: str | Path) -> list[CodedRow]:
    return parse_corpus(Path(path).read_text(encoding="utf-8-sig"))


@dataclass(frozen=True)
class DistributionSummary:
    """Aggregate view of one coded corpus."""

    n_citations: int
    n_papers: int
    primary_counts: dict
    secondary_counts: dict
    per_paper: dict
    mean_per_paper: float
    median_per_paper: float
    min_per_paper: int
    max_per_paper: int
    buckets: dict
    compound_rate: float


def _all_modes_dict(counts: dict) -> dict:
    return {mode.value: counts.get(mode.value, 0) for mode in FailureMode}


def summarize(rows: list[CodedRow]) -> DistributionSummary:
    if not rows:
        raise ValueError("cannot summarize an empty corpus")

    primary_counts: dict[str, int] = {}
    secondary_counts: dict[str, int] = {}
    per_paper: dict[str, int] = {}
    compound = 0
    for row in rows:
        primary_counts[row.primary.value] = primary_counts.get(row.primary.value, 0) + 1
        secondary_counts[row.secondary.value] = (
            secondary_counts.get(row.secondary.value, 0) + 1
        )
        if row.primary is not row.secondary:
            compound += 1
        per_paper[row.paper_id] = per_paper.get(row.paper_id, 0) + 1

    counts = list(per_paper.values())
    buckets = {label: 0 for label in BUCKET_LABELS}
    for n in counts:
        if n <= 2:
            buckets["1-2"] += 1
        elif n <= 6:
            buckets["3-6"] += 1
        else:
            buckets["7+"] += 1

    return DistributionSummary(
        n_citations=len(rows),
        n_papers=len(per_paper),
        primary_counts=_all_modes_dict(primary_counts),
        secondary_counts=_all_modes_dict(secondary_counts),
        per_paper=dict(sorted(per_paper.items())),
        mean_per_paper=statistics.fmean(counts),
        median_per_paper=float(statistics.median(counts)),
        min_per_paper=min(counts),
        max_per_paper=max(counts),
        buckets=buckets,
        compound_rate=compound / len(rows),
    )


def percent(numerator: int | float, denominator: int | float) -> str:
    """Half-up percentage with one decimal, as a string without the sign."""
    if denominator == 0:
        return "0.0"
    value = Decimal(str(numerator)) * 100 / Decimal(str(denominator))
    return str(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _ranked(counts: dict) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _render_text(s: DistributionSummary) -> str:
    lines = [f"Primary failure modes (n={s.n_citations})"]
    for code, count in _ranked(s.primary_counts):
        lines.append(f"{code:<5}{count:>5}  {percent(count, s.n_citations)}%")
    lines.append("")
    lines.append("Secondary failure modes")
    for code, count in _ranked(s.secondary_counts):
        lines.append(f"{code:<5}{count:>5}  {percent(count, s.n_citations)}%")
    lines.append("")
    lines.append(f"Flagged citations per paper ({s.n_papers} papers)")
    lines.append(
        f"mean {s.mean_per_paper:.2f}  median {s.median_per_paper:g}"
        f"  min {s.min_per_paper}  max {s.max_per_paper}"
    )
    lines.append(
        "  ".join(f"{label}: {s.buckets[label]}" for label in BUCKET_LABELS)
    )
    lines.append(f"compound rate: {percent(s.compound_rate, 1)}%")
    return "\n".join(lines) + "\n"


def _render_csv(s: DistributionSummary) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["section", "label", "count", "share"])
    for code, count in _ranked(s.primary_counts):
        writer.writerow(["primary", code, count, percent(count, s.n_citations)])
    for code, count in _ranked(s.secondary_counts):
        writer.writerow(["secondary", code, count, percent(count, s.n_citations)])
    writer.writerow(["stats", "n_citations", s.n_citations, ""])
    writer.writerow(["stats", "n_papers", s.n_papers, ""])
    writer.writerow(["stats", "mean_per_paper", f"{s.mean_per_paper:.4f}", ""])
    writer.writerow(["stats", "median_per_paper", f"{s.median_per_paper:g}", ""])
    writer.writerow(["stats", "min_per_paper", s.min_per_paper, ""])
    writer.writerow(["stats", "max_per_paper", s.max_per_paper, ""])
    for label in BUCKET_LABELS:
        writer.writerow(["bucket", label, s.buckets[label], ""])
    writer.writerow(["stats", "compound_rate", f"{s.compound_rate:.4f}", ""])
    return out.getvalue()


def render_summary(s: DistributionSummary, format: str = "text") -> str:
    if format == "text":
        return _render_text(s)
    if format == "csv":
        return _render_csv(s)
    if format == "json":
        return json.dumps(asdict(s), indent=2) + "\n"
    raise ValueError(f"unknown summary format {format!r}")
