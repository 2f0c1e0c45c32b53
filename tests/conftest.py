from __future__ import annotations

import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from citeaudit.classify import ClassifierConfig, classify

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")
from citeaudit.data import load_packaged_vocab, packaged_fixture_provider
from citeaudit.model import (
    AuthorName,
    Identifier,
    IdentifierKind,
    ParsedCitation,
    ResolvedRecord,
    Verdict,
    normalize_name,
)
from citeaudit.parsing import parse_file
from citeaudit.resolve import Resolver

DATA_DIR = Path(__file__).parent / "data"

# Filled by the acceptance tests; (criterion number, description, passed).
ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one [PASS]/[FAIL] line per acceptance criterion after capture
    ends, so the lines survive pytest's fd-level output capture."""
    latest: dict[int, tuple[str, bool]] = {}
    for number, description, passed in ACCEPTANCE_RESULTS:
        latest[number] = (description, passed)
    for number in sorted(latest):
        description, passed = latest[number]
        tag = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{tag}] criterion {number}: {description}")


@pytest.fixture(autouse=True)
def no_lane_thread_outlives_its_test():
    """Fail a test that leaves alive a citeaudit-* lane thread it started:
    resolve_all ends every lane thread of a call when its iteration ends."""
    before = set(threading.enumerate())
    yield
    left = [
        t.name
        for t in threading.enumerate()
        if t not in before and t.name.startswith("citeaudit-")
    ]
    assert not left, f"lane threads still alive after the test: {left}"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def vocab() -> frozenset[str]:
    return load_packaged_vocab()


@pytest.fixture(scope="session")
def exemplar_citations():
    report = parse_file(DATA_DIR / "exemplars.txt")
    assert not report.warnings
    assert len(report.citations) == 5
    return report.citations


@pytest.fixture()
def offline_resolver() -> Resolver:
    return Resolver(providers=[packaged_fixture_provider()])


@pytest.fixture()
def classifier_config(vocab) -> ClassifierConfig:
    return ClassifierConfig(vocab=vocab)


def classify_citation(
    citation: ParsedCitation, resolver: Resolver, config: ClassifierConfig
) -> Verdict:
    """Resolve then classify a single citation, without the batch's pre-pass."""
    return classify(citation, resolver.resolve_citation(citation), config)


def make_citation(
    key: str = "c1",
    authors: tuple[str, ...] = ("Ada Lovelace",),
    title: str = "A sample title",
    year: int | None = 2020,
    identifiers: tuple[Identifier, ...] = (),
    raw_text: str = "",
) -> ParsedCitation:
    parsed_authors = tuple(normalize_name(a) for a in authors)
    return ParsedCitation(
        source_key=key,
        authors=parsed_authors,
        title=title,
        year=year,
        identifiers=identifiers,
        raw_text=raw_text or f"{', '.join(authors)}. {title}. Journal of Samples, {year}.",
    )


def make_record(
    title: str = "A sample title",
    authors: tuple[str, ...] = ("Ada Lovelace",),
    venue: str = "Journal of Samples",
    year: int | None = 2020,
    pages: str | None = None,
    identifiers: tuple[Identifier, ...] = (),
    provider: str = "test",
) -> ResolvedRecord:
    parsed: tuple[AuthorName, ...] = tuple(normalize_name(a) for a in authors)
    return ResolvedRecord(
        provider=provider,
        title=title,
        authors=parsed,
        venue=venue,
        year=year,
        pages=pages,
        identifiers=identifiers,
    )
