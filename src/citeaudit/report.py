"""Report assembly and the process exit-code contract.

Exit codes: 0 when every citation verified, 1 when anything was flagged as
hallucinated, 2 when nothing was flagged but at least one citation could
not be checked, 3 for usage and I/O errors (assigned by the CLI).
"""
from __future__ import annotations

import io
import json
import math
from json.encoder import encode_basestring

from .model import (
    ParsedCitation,
    Verdict,
    VerdictStatus,
    verdict_to_dict,
)

EXIT_OK = 0
EXIT_HALLUCINATED = 1
EXIT_UNVERIFIABLE = 2
EXIT_USAGE = 3


def exit_code_for(verdicts) -> int:
    verdicts = list(verdicts)
    if any(v.status is VerdictStatus.HALLUCINATED for v in verdicts):
        return EXIT_HALLUCINATED
    if any(v.status is VerdictStatus.UNVERIFIABLE for v in verdicts):
        return EXIT_UNVERIFIABLE
    return EXIT_OK


def build_report(
    input_name: str,
    citations: list[ParsedCitation] | tuple[ParsedCitation, ...],
    verdicts: list[Verdict],
) -> dict:
    """Assemble the full report document for one input file."""
    if len(citations) != len(verdicts):
        raise ValueError("citations and verdicts must align one-to-one")
    entries = []
    for citation, verdict in zip(citations, verdicts):
        entry = verdict_to_dict(verdict)
        entry["raw_text"] = citation.raw_text
        entries.append(entry)
    by_status = {status.value: 0 for status in VerdictStatus}
    by_primary: dict[str, int] = {}
    for verdict in verdicts:
        by_status[verdict.status.value] += 1
        if verdict.primary is not None:
            by_primary[verdict.primary.value] = (
                by_primary.get(verdict.primary.value, 0) + 1
            )
    return {
        "input": input_name,
        "n_citations": len(verdicts),
        "verdicts": entries,
        "summary": {
            "verified": by_status["verified"],
            "hallucinated": by_status["hallucinated"],
            "unverifiable": by_status["unverifiable"],
            "by_primary": dict(sorted(by_primary.items())),
        },
    }


def render_report_text(report: dict) -> str:
    lines = [f"{report['input']}: {report['n_citations']} citations"]
    for entry in report["verdicts"]:
        status = entry["status"]
        if status == "hallucinated":
            label = f"HALLUCINATED {entry['primary']}+{entry['secondary']}"
        elif status == "unverifiable":
            label = f"UNVERIFIABLE ({entry['cause']})"
        else:
            label = "VERIFIED"
        lines.append(f"[{entry['citation_key']}] {label}")
        if status != "verified":
            # Quote the claimed reference verbatim so the reader can check it.
            for raw_line in entry["raw_text"].splitlines():
                lines.append(f"    > {raw_line}")
        for item in entry["evidence"]:
            score = f" (score {item['score']})" if item["score"] is not None else ""
            lines.append(f"    - {item['mode']}: {item['detail']}{score}")
        if status == "verified" and entry["matched_record"]:
            record = entry["matched_record"]
            lines.append(
                f"    = {record['title']!r}, {record['provider']}"
            )
    s = report["summary"]
    lines.append(
        f"verified {s['verified']}, hallucinated {s['hallucinated']},"
        f" unverifiable {s['unverifiable']}"
    )
    return "\n".join(lines) + "\n"


def render_report_json(report: dict) -> str:
    """The text of json.dumps(report, indent=2, ensure_ascii=False) and a
    newline. json.dumps runs its pure-Python encoder whenever it indents;
    _write_json writes the same text in about half the time."""
    parts: list[str] = []
    _write_json(report, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append value's JSON text, as json.dumps writes it, to parts. newline
    is a line break plus the indent of value's own line."""
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                # json writes a number, true, false or null key as a string.
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = json.dumps(key)
            parts.append(separator + encode_basestring(key) + ": ")
            _write_json(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(float.__repr__(value) if math.isfinite(value) else json.dumps(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report_csv(report: dict) -> str:
    import csv  # only this format uses it: a json or text run skips the import

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["citation_key", "status", "primary", "secondary", "cause", "detail", "raw_text"]
    )
    for entry in report["verdicts"]:
        detail = entry["evidence"][0]["detail"] if entry["evidence"] else ""
        writer.writerow(
            [
                entry["citation_key"],
                entry["status"],
                entry["primary"] or "",
                entry["secondary"] or "",
                entry["cause"] or "",
                detail,
                " ".join(entry["raw_text"].split()),
            ]
        )
    return out.getvalue()


def render_report(report: dict, format: str = "text") -> str:
    if format == "text":
        return render_report_text(report)
    if format == "json":
        return render_report_json(report)
    if format == "csv":
        return render_report_csv(report)
    raise ValueError(f"unknown report format {format!r}")
