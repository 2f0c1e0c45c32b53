"""Fuzzy record linkage: title and author similarity, thresholded matching.

The similarity functions are deterministic and symmetric, and the field
comparison distinguishes a mismatch (claimed and resolved disagree) from a
missing value (the citation never claimed the field), because only genuine
disagreements count against a citation.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .model import (
    AuthorName,
    FieldMatch,
    FieldMatchProfile,
    ParsedCitation,
    ResolvedRecord,
    fold_diacritics,
)

STOPWORDS = frozenset(
    {
        "a", "an", "and", "as", "at", "by", "for", "from", "in", "into",
        "is", "it", "its", "of", "on", "or", "that", "the", "to", "via",
        "with",
        # Venue boilerplate that would otherwise dominate title vocabularies.
        "proceedings", "conference", "journal", "international",
    }
)

_WORD_RE = re.compile(r"[a-z0-9]+")


# Pure: a title compared with several records is normalized once.
@lru_cache(maxsize=4096)
def normalize_title(title: str) -> str:
    """Casefold, fold diacritics, squeeze punctuation to single spaces."""
    folded = fold_diacritics(title.casefold())
    return " ".join(_WORD_RE.findall(folded))


def title_tokens(title: str) -> list[str]:
    return _WORD_RE.findall(fold_diacritics(title.casefold()))


def content_tokens(title: str) -> list[str]:
    """Title tokens minus stopwords and single characters."""
    return [t for t in title_tokens(title) if len(t) >= 2 and t not in STOPWORDS]


def levenshtein(a: str, b: str) -> int:
    """Edit distance, unit costs, bit-parallel over arbitrary-width ints.

    The bit-vector algorithm of Myers (1999, "A fast bit-vector algorithm
    for approximate string matching based on dynamic programming", JACM
    46(3)) in the global-distance form of Hyyrö (2001, "Explaining and
    extending the bit-parallel approximate string matching algorithm of
    Myers"; 2003, "A bit-vector algorithm for computing Levenshtein and
    Damerau edit distances"). Bit i of pv / mv says the DP column steps up /
    down by one at row i of the shorter string; each character of the
    longer string updates the whole column in a constant number of integer
    operations. Python ints grow as needed, so there is no word-length
    limit.
    """
    if a == b:
        return 0
    # A shared prefix or suffix costs nothing: only what lies between counts.
    n = min(len(a), len(b))
    start = 0
    while start < n and a[start] == b[start]:
        start += 1
    end = 0
    while end < n - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a = a[start : len(a) - end]
    b = b[start : len(b) - end]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in b:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    get = peq.get
    pv = mask
    mv = 0
    # Bit i of a result depends only on bits 0..i of its operands, so bits
    # at or above len(b) never reach the column. One mask per step keeps pv
    # to len(b) bits, and with it xh, ph and mv to two bits more.
    for eq in [get(ch, 0) for ch in a]:
        xv = eq | mv
        xh = (((xv & pv) + pv) ^ pv) | xv
        # Row 0 of the DP grows by one per column: carry a +1 into the shift.
        ph = (mv | (mask ^ (xh | pv))) << 1 | 1
        pv = ((xh & pv) << 1 | (mask ^ (xh | ph))) & mask
        mv = ph & xh
    # The last column's steps, added to row 0's len(a).
    return len(a) + pv.bit_count() - (mv & mask).bit_count()


def title_similarity(a: str, b: str) -> float:
    """Max of token-set Jaccard and normalized edit similarity.

    The token view forgives reordering and punctuation; the character view
    forgives single-word typos. Two empty titles are identical; one empty
    title matches nothing.
    """
    norm_a = normalize_title(a)
    norm_b = normalize_title(b)
    if not norm_a and not norm_b:
        return 1.0
    if not norm_a or not norm_b:
        return 0.0

    set_a = set(norm_a.split())
    set_b = set(norm_b.split())
    jaccard = len(set_a & set_b) / len(set_a | set_b)

    max_len = max(len(norm_a), len(norm_b))
    edit_sim = 1.0 - levenshtein(norm_a, norm_b) / max_len
    return max(jaccard, edit_sim)


def _initials(author: AuthorName) -> str:
    return "".join(tok[0] for tok in author.given_tokens if tok)


def _initials_compatible(a: AuthorName, b: AuthorName) -> bool:
    """True when neither side's initials contradict the other.

    An absent given name is compatible with anything; "J" is compatible with
    "John" but not with "Mary".
    """
    ia, ib = _initials(a), _initials(b)
    if not ia or not ib:
        return True
    shorter, longer = sorted((ia, ib), key=len)
    return longer.startswith(shorter)


def _pair_score(a: AuthorName, b: AuthorName) -> float:
    if a.is_placeholder or b.is_placeholder:
        return 0.0
    if not a.surname or a.surname != b.surname:
        return 0.0
    return 1.0 if _initials_compatible(a, b) else 0.5


def author_similarity(
    claimed: tuple[AuthorName, ...] | list[AuthorName],
    resolved: tuple[AuthorName, ...] | list[AuthorName],
) -> float:
    """Greedy one-to-one alignment on surnames, scored against the longer list.

    Each pair scores 1.0 for surname plus compatible initials, 0.5 for
    surname alone. Placeholder names never align, so a fully templated
    author list scores 0 against anything.
    """
    if not claimed and not resolved:
        return 1.0
    if not claimed or not resolved:
        return 0.0

    remaining = list(resolved)
    total = 0.0
    for author in claimed:
        best_idx = -1
        best = 0.0
        for idx, candidate in enumerate(remaining):
            score = _pair_score(author, candidate)
            if score > best:
                best = score
                best_idx = idx
        if best_idx >= 0:
            total += best
            remaining.pop(best_idx)
    return total / max(len(claimed), len(resolved))


@dataclass(frozen=True)
class MatchThresholds:
    """Decision cut-offs for field agreement.

    title_strong: similarity at or above which titles are the same work.
    author_strong: author-list similarity treated as agreement.
    year_slack: absolute year difference still counted as a match.
    """

    title_strong: float = 0.90
    author_strong: float = 0.80
    year_slack: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.title_strong <= 1.0:
            raise ValueError(f"title_strong must lie in (0, 1], got {self.title_strong}")
        if not 0.0 < self.author_strong <= 1.0:
            raise ValueError(f"author_strong must lie in (0, 1], got {self.author_strong}")
        if self.year_slack < 0:
            raise ValueError("year_slack must be non-negative")


_PAGE_SEP_RE = re.compile(r"[‐-―−]|--")


def _normalize_pages(pages: str) -> str:
    return _PAGE_SEP_RE.sub("-", pages).replace(" ", "").casefold()


def profile_match(
    citation: ParsedCitation,
    record: ResolvedRecord,
    thresholds: MatchThresholds,
) -> FieldMatchProfile:
    """Field-by-field comparison of a claimed citation against one record.

    MISSING means the citation did not claim the field; it never counts as
    disagreement. Venues are not compared: citations abbreviate them too
    freely for a disagreement to mean anything.
    """
    t_sim = title_similarity(citation.title, record.title)
    if not citation.title.strip():
        t_match = FieldMatch.MISSING
    else:
        t_match = (
            FieldMatch.MATCH if t_sim >= thresholds.title_strong else FieldMatch.MISMATCH
        )

    a_sim = author_similarity(citation.authors, record.authors)
    real_authors = [a for a in citation.authors if not a.is_placeholder]
    if not real_authors:
        a_match = FieldMatch.MISSING if not citation.authors else FieldMatch.MISMATCH
    else:
        a_match = (
            FieldMatch.MATCH if a_sim >= thresholds.author_strong else FieldMatch.MISMATCH
        )

    if citation.year is None:
        y_match = FieldMatch.MISSING
    elif record.year is None:
        y_match = FieldMatch.MISSING
    else:
        y_match = (
            FieldMatch.MATCH
            if abs(citation.year - record.year) <= thresholds.year_slack
            else FieldMatch.MISMATCH
        )

    p_match = FieldMatch.MISSING
    if citation.pages and record.pages:
        p_match = (
            FieldMatch.MATCH
            if _normalize_pages(citation.pages) == _normalize_pages(record.pages)
            else FieldMatch.MISMATCH
        )

    return FieldMatchProfile(
        author_match=a_match,
        title_match=t_match,
        year_match=y_match,
        pages_match=p_match,
        title_similarity=t_sim,
        author_similarity=a_sim,
    )


def best_candidate(
    scored: Sequence[tuple[ResolvedRecord, FieldMatchProfile]],
) -> tuple[ResolvedRecord, FieldMatchProfile] | None:
    """Pick the (record, profile) pair with the highest title similarity,
    breaking ties by author similarity and then by position (provider
    order). Returns None when there are no pairs."""
    if not scored:
        return None
    return min(
        scored,
        key=lambda pair: (-pair[1].title_similarity, -pair[1].author_similarity),
    )


def title_plausibility(title: str, vocab: frozenset[str]) -> float:
    """Fraction of content tokens present in the reference vocabulary.

    A title with no content tokens scores 0: there is nothing to find
    plausible.
    """
    tokens = content_tokens(title)
    if not tokens:
        return 0.0
    hits = sum(1 for t in tokens if t in vocab)
    return hits / len(tokens)


def build_vocab(titles: list[str] | tuple[str, ...]) -> frozenset[str]:
    """Content tokens appearing at least twice across the title corpus."""
    if not titles:
        raise ValueError("cannot build a vocabulary from an empty title corpus")
    counts: dict[str, int] = {}
    for title in titles:
        for token in content_tokens(title):
            counts[token] = counts.get(token, 0) + 1
    return frozenset(tok for tok, n in counts.items() if n >= 2)
