"""Independent reference implementations used to cross-check the package.

These are deliberately written in the most literal way possible (full DP
matrix, no two-row trick; set arithmetic straight from the definition) so a
bug in the optimized production code cannot hide in a shared shortcut.
"""
from __future__ import annotations

import re
from unittest import mock

from citeaudit import bibtex
from citeaudit.identifiers import _IN_TEXT, _clean, dedupe_identifiers, make_identifier
from citeaudit.plaintext import _INITIAL_WORD_RE, _NON_BREAKING


def edit_distance_matrix(a: str, b: str) -> int:
    """Levenshtein distance via the full (len(a)+1) x (len(b)+1) matrix."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + cost,
            )
    return d[rows - 1][cols - 1]


def edit_similarity(a: str, b: str) -> float:
    """1 - distance/maxlen, the edit component of the blended title score."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - edit_distance_matrix(a, b) / longest


def jaccard(tokens_a: set[str], tokens_b: set[str]) -> float:
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    if not union:
        return 1.0
    return len(tokens_a & tokens_b) / len(union)


def resolve_in_order(ladder_of, providers, citations) -> tuple[list, dict]:
    """Reference model of Resolver.resolve_all: no lanes, no threads.

    Steps each citation's lookup ladder (ladder_of(citation), the
    generator Resolver._ladder returns) to its end before the next one
    starts, in input order. Each op the ladder yields is answered by the
    first of providers that has it, called directly; every op must have
    one. A dict memo keyed by (op, args) keeps every Found, NotFound and
    search result, as the cache does, and never an Unavailable outcome or
    a raise. A raise ends that citation's ladder and is its result.

    Returns each citation's bundle or exception, and how many ladders asked
    for each (op, args).
    """
    memo: dict = {}
    asks: dict = {}
    results = []
    for citation in citations:
        ladder = ladder_of(citation)
        outcome = None
        try:
            while True:
                op, args = ladder.send(outcome)
                asks[op, args] = asks.get((op, args), 0) + 1
                if (op, args) in memo:
                    outcome = memo[op, args]
                    continue
                owner = next(p for p in providers if hasattr(p, op))
                outcome = getattr(owner, op)(*args)
                if not outcome.failed:
                    memo[op, args] = outcome
        except StopIteration as stop:
            results.append(stop.value)
        except Exception as exc:  # noqa: BLE001 - the citation's result
            results.append(exc)
    return results, asks


def sentence_break_rescanning(masked: str, start: int) -> int:
    """plaintext._sentence_break as first written: every sentence-ending
    period from offset 0, skipping those before start, with the word before
    each one found by a search over a copy of the whole prefix."""
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


def scan_identifiers_unfiltered(text: str) -> tuple[list, list[tuple[int, int]]]:
    """identifiers.scan_identifiers with every free-text form run over the
    whole text, whether or not the text holds one of the form's marks."""
    found = []
    spans = []
    for rx, kind, _marks in _IN_TEXT:
        for m in rx.finditer(text):
            spans.append(m.span())
            value = _clean(m.group(m.lastindex or 0))
            if value:
                found.append(make_identifier(kind, value))
    return dedupe_identifiers(found), spans


def _read_group_walking(sc, closer: str) -> str:
    """bibtex._read_group as first written: it walks the group from its
    opener, so a group that never closes is walked to the end of the text
    each time one is read."""
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
    raise bibtex.BibtexError(f"unterminated {opener}...{closer} group", start)


def parse_bibtex_walking(text: str):
    """bibtex.parse_bibtex with every group read by _read_group_walking."""
    with mock.patch.object(bibtex, "_read_group", _read_group_walking):
        return bibtex.parse_bibtex(text)
