from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeaudit import resolve as resolve_module
from citeaudit.classify import ClassifierConfig, classify
from citeaudit.data import packaged_fixture_provider
from citeaudit.identifiers import make_identifier
from citeaudit.matching import profile_match
from citeaudit.model import IdentifierKind, VerdictStatus, normalize_name
from citeaudit.parsing import parse_file
from citeaudit.ratelimit import TokenBucket
from citeaudit.resolve import (
    DEFAULT_CACHE_TTL_SECONDS,
    ArxivClient,
    FixtureProvider,
    LookupCache,
    LookupOutcome,
    LookupStatus,
    ProviderConfig,
    ResolutionBundle,
    Resolver,
    _cache_key,
    _decode,
)
from tests.conftest import classify_citation, make_citation, make_record
from tests.http_fakes import FakeArxivSession, FakeResponse, Paper
from tests.oracles import resolve_in_order


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=-1)

    @staticmethod
    def _wait(bucket, clock) -> float:
        """How far one acquire() moves the fake clock: its wait for a token."""
        before = clock.now
        assert bucket.acquire() is None
        return clock.now - before

    def test_first_token_is_free(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, clock=clock, sleep=clock.sleep)
        assert self._wait(bucket, clock) == 0
        assert self._wait(bucket, clock) == pytest.approx(1.0)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, clock=clock, sleep=clock.sleep)
        assert self._wait(bucket, clock) == 0
        clock.now += 0.49
        assert self._wait(bucket, clock) == pytest.approx(0.01)
        clock.now += 0.5
        assert self._wait(bucket, clock) == 0

    def test_capacity_caps_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, clock=clock, sleep=clock.sleep)
        assert self._wait(bucket, clock) == 0
        clock.now += 100.0
        assert self._wait(bucket, clock) == 0
        assert self._wait(bucket, clock) == pytest.approx(0.1)

    def test_acquire_blocks_until_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, clock=clock, sleep=clock.sleep)
        bucket.acquire()
        bucket.acquire()
        assert clock.now == pytest.approx(0.25)

    def test_concurrent_acquires_never_oversubscribe(self):
        bucket = TokenBucket(rate=1000.0)
        start = time.monotonic()
        got = []

        def worker():
            bucket.acquire()
            got.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 8
        # The bucket holds one token, so the other seven come at its rate.
        assert time.monotonic() - start >= 7 / 1000.0


class TestFixtureProvider:
    def test_closed_world_missing_key_is_not_found(self):
        fx = FixtureProvider({"closed_world": True, "outcomes": {}})
        assert fx.lookup_doi("10.1/x").status is LookupStatus.NOT_FOUND
        assert fx.search_title("anything").records == ()
        assert not fx.search_title("anything").failed

    def test_open_world_missing_key_is_unavailable(self):
        fx = FixtureProvider({"closed_world": False, "outcomes": {}})
        assert fx.lookup_doi("10.1/x").status is LookupStatus.UNAVAILABLE
        assert fx.lookup_doi("10.1/x").cause == "offline"
        assert fx.search_title("anything").failed

    def test_explicit_unavailable_entry(self):
        fx = FixtureProvider(
            {
                "closed_world": True,
                "outcomes": {
                    "doi:10.1/x": {"status": "unavailable", "cause": "http_5xx"}
                },
            }
        )
        outcome = fx.lookup_doi("10.1/X")
        assert outcome.status is LookupStatus.UNAVAILABLE
        assert outcome.cause == "http_5xx"

    def test_found_record_parsed(self):
        fx = packaged_fixture_provider()
        outcome = fx.lookup_arxiv("1706.03762")
        assert outcome.status is LookupStatus.FOUND
        assert outcome.record.title == "Attention Is All You Need"
        assert outcome.record.authors[0].surname == "vaswani"

    def test_title_search_normalizes_query(self):
        fx = packaged_fixture_provider()
        assert fx.search_title("Attention Is All You Need!").records
        assert fx.search_title("ATTENTION is all you NEED").records

    def test_author_year_search(self):
        fx = packaged_fixture_provider()
        outcome = fx.search_author_year("Paolone", 2020)
        assert len(outcome.records) == 1
        assert outcome.records[0].pages == "106811"


class TestLookupCache:
    def test_put_then_get(self, tmp_path):
        cache = LookupCache(tmp_path / "cache.jsonl")
        cache.put("doi:10.1/x", {"status": "found"})
        assert cache.get("doi:10.1/x") == {"status": "found"}

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        LookupCache(path).put("k", {"v": 1})
        assert LookupCache(path).get("k") == {"v": 1}

    def test_ttl_expiry(self, tmp_path):
        cache = LookupCache(tmp_path / "cache.jsonl")
        cache.put("k", {"v": 1}, now=1000.0)
        assert cache.get("k", now=1000.0 + DEFAULT_CACHE_TTL_SECONDS - 1) == {"v": 1}
        assert cache.get("k", now=1000.0 + DEFAULT_CACHE_TTL_SECONDS + 1) is None

    def test_newest_entry_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = LookupCache(path)
        cache.put("k", {"v": 1}, now=1.0)
        cache.put("k", {"v": 2}, now=2.0)
        assert LookupCache(path).get("k", now=3.0) == {"v": 2}

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k", "stored_at": 1.0, "payload": {"v": 1}})
        path.write_text("not json\n\n" + good + "\n   \n{}\n", encoding="utf-8")
        assert LookupCache(path).get("k", now=2.0) == {"v": 1}

    def test_without_path_lives_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = LookupCache()
        cache.put("k", {"v": 1}, now=1000.0)
        assert cache.get("k", now=1000.0 + DEFAULT_CACHE_TTL_SECONDS - 1) == {"v": 1}
        assert cache.get("k", now=1000.0 + DEFAULT_CACHE_TTL_SECONDS + 1) is None
        assert list(tmp_path.iterdir()) == []


class CountingProvider:
    """Provider that counts how often each op is hit. It answers from a
    closed-world fixture of outcomes, or from the fixture provider given."""

    def __init__(
        self,
        outcomes: dict | None = None,
        rate_limit: float = 0.0,
        fixture: FixtureProvider | None = None,
        name: str = "counting",
        endpoint: str = "",
    ):
        self.config = ProviderConfig(name=name, base_endpoint=endpoint, rate_limit=rate_limit)
        self.calls: list[str] = []
        self._fx = fixture or FixtureProvider(
            {"closed_world": True, "outcomes": outcomes or {}}, name="counting"
        )

    def lookup_doi(self, doi):
        self.calls.append(f"doi:{doi}")
        return self._fx.lookup_doi(doi)

    def lookup_arxiv(self, arxiv_id):
        self.calls.append(f"arxiv:{arxiv_id}")
        return self._fx.lookup_arxiv(arxiv_id)

    def search_title(self, title):
        self.calls.append("title")
        return self._fx.search_title(title)

    def search_author_year(self, surname, year):
        self.calls.append("author")
        return self._fx.search_author_year(surname, year)


def _asking(doi=None, title="", author=None, year=None):
    """A citation whose ladder asks for the DOI, a title search and an
    author-year search, each only when given (unless an answer ends it)."""
    return make_citation(
        authors=(author,) if author else (),
        title=title,
        year=year,
        identifiers=(make_identifier(IdentifierKind.DOI, doi),) if doi else (),
    )


def _resolve(resolver, *citations) -> list:
    """resolve_all's bundles for citations, with one request in flight per
    provider."""
    return list(resolver.resolve_all(citations, jobs=1))


def _doi_outcome(resolver, doi) -> LookupOutcome:
    """The outcome of a lookup_doi(doi) that resolve_all sends or settles."""
    (bundle,) = _resolve(resolver, _asking(doi=doi))
    return bundle.identifier_outcomes[0][1]


class TestResolver:
    def test_cache_prevents_second_network_op(self, tmp_path):
        provider = CountingProvider()
        cache = LookupCache(tmp_path / "c.jsonl")
        resolver = Resolver(providers=[provider], cache=cache)
        _doi_outcome(resolver, "10.1000/x")
        _doi_outcome(resolver, "10.1000/x")
        assert len(provider.calls) == 1

    def test_cache_shared_across_resolvers(self, tmp_path):
        path = tmp_path / "c.jsonl"
        provider = CountingProvider()
        first = Resolver(providers=[provider], cache=LookupCache(path))
        _doi_outcome(first, "10.1000/x")
        other = CountingProvider()
        second = Resolver(providers=[other], cache=LookupCache(path))
        outcome = _doi_outcome(second, "10.1000/x")
        assert outcome.status is LookupStatus.NOT_FOUND
        assert other.calls == []

    def test_unavailable_not_cached(self, tmp_path):
        flaky = CountingProvider()
        flaky._fx = FixtureProvider({"closed_world": False, "outcomes": {}})
        cache = LookupCache(tmp_path / "c.jsonl")
        resolver = Resolver(providers=[flaky], cache=cache)
        assert _doi_outcome(resolver, "10.1000/x").status is LookupStatus.UNAVAILABLE
        assert _doi_outcome(resolver, "10.1000/x").status is LookupStatus.UNAVAILABLE
        assert len(flaky.calls) == 2
        assert cache.get(_cache_key(flaky, "doi:10.1000/x")) is None
        assert not cache.path.exists()

    def test_repeated_lookup_memoized_without_cache(self):
        provider = CountingProvider(
            outcomes={"title:some title": {"records": [{"title": "Some Title"}]}}
        )
        resolver = Resolver(providers=[provider])
        first = _doi_outcome(resolver, "10.1000/x")
        assert _doi_outcome(resolver, "10.1000/X") == first
        searches = [_asking(title="Some Title"), _asking(author="Ada Lovelace", year=2020)]
        for citation in searches * 2:
            _resolve(resolver, citation)
        assert provider.calls == ["doi:10.1000/x", "title", "author"]

    def test_search_results_cached(self, tmp_path):
        provider = CountingProvider(
            outcomes={"title:some title": {"records": [{"title": "Some Title"}]}}
        )
        resolver = Resolver(providers=[provider], cache=LookupCache(tmp_path / "c.jsonl"))
        (first,) = _resolve(resolver, _asking(title="Some Title"))
        (second,) = _resolve(resolver, _asking(title="Some Title"))
        assert first.title_search.records[0].title == "Some Title"
        assert second.title_search.records[0].title == "Some Title"
        assert provider.calls == ["title"]

    @pytest.mark.parametrize(
        "title_row",
        [
            {"records": "Some Title"},
            {},
            {"status": "bogus"},
            {"recods": [{"title": "Some Title"}]},
        ],
        ids=["not-a-list", "empty", "bad-status", "misspelt"],
    )
    def test_payload_that_does_not_decode_is_fetched_again(self, tmp_path, title_row):
        # A search row that does not decode is no answer either: read as an
        # empty search, it would be NotFound evidence against a real work.
        path = tmp_path / "c.jsonl"
        cache = LookupCache(path)
        provider = CountingProvider(
            outcomes={"title:some title": {"records": [{"title": "Some Title"}]}}
        )
        doi_key = _cache_key(provider, "doi:10.1000/x")
        title_key = _cache_key(provider, "title:some title")
        cache.put(doi_key, {"status": "bogus"})
        cache.put(title_key, title_row)
        resolver = Resolver(providers=[provider], cache=cache)
        for _ in range(2):
            (bundle,) = _resolve(resolver, _asking(doi="10.1000/x", title="Some Title"))
            assert bundle.identifier_outcomes == (("doi:10.1000/x", LookupOutcome.not_found()),)
            assert bundle.title_search.records[0].title == "Some Title"
        assert provider.calls == ["doi:10.1000/x", "title"]
        # The fresh rows are the newest, so they win in the next run too.
        assert LookupCache(path).get(doi_key) == {"records": []}
        assert LookupCache(path).get(title_key)["records"][0]["title"] == "Some Title"

    def test_written_payloads_decode_to_the_outcomes_put(self, tmp_path, data_dir):
        # Cache payloads are fixture entries: each payload the resolver puts
        # for the exemplars and a clean bibliography reads back, through the
        # decoder FixtureProvider uses, as the outcome the provider gave.
        given: list = []
        put: list = []

        class Recording:
            """A network provider that answers from the packaged fixture."""

            config = ProviderConfig(name="recording", base_endpoint="http://recording")

            def __init__(self):
                self._fx = packaged_fixture_provider()

            def _answer(self, op, *args):
                given.append(getattr(self._fx, op)(*args))
                return given[-1]

            def lookup_doi(self, doi):
                return self._answer("lookup_doi", doi)

            def lookup_arxiv(self, arxiv_id):
                return self._answer("lookup_arxiv", arxiv_id)

            def search_title(self, title):
                return self._answer("search_title", title)

            def search_author_year(self, surname, year):
                return self._answer("search_author_year", surname, year)

        class RecordingCache(LookupCache):
            def put(self, key, payload, now=None):
                put.append((key, payload))
                super().put(key, payload, now)

        citations = [
            c
            for name in ("exemplars.txt", "clean.bib")
            for c in parse_file(data_dir / name).citations
        ]
        resolver = Resolver(
            providers=[Recording()], cache=RecordingCache(tmp_path / "c.jsonl")
        )
        bundles = list(resolver.resolve_all(citations, jobs=1))
        assert len(put) == len(given) > len(citations)
        for (key, payload), outcome in zip(put, given):
            assert _decode(payload, "unused") == outcome, key
        # A second run from the same source reads every answer from the file
        # and asks the provider nothing.
        same = CountingProvider(name="recording", endpoint="http://recording")
        rerun = Resolver(providers=[same], cache=LookupCache(tmp_path / "c.jsonl"))
        assert list(rerun.resolve_all(citations, jobs=1)) == bundles
        assert same.calls == []

    def test_rows_in_the_earlier_payload_shapes_are_hits(self, tmp_path):
        # A cache written before lookups and searches shared one payload
        # form holds a lookup as {"status", "record"}, a search as
        # {"records"}. A rerun reads each and asks the provider nothing.
        provider = CountingProvider()
        record = {"provider": "counting", "title": "Some Title", "year": 2020}
        payloads = {
            "doi:10.1000/a": {"status": "found", "record": record},
            "doi:10.1000/b": {"status": "not_found", "record": None},
            "title:some title": {"records": [record]},
        }
        path = tmp_path / "c.jsonl"
        rows = [
            {"key": _cache_key(provider, key), "stored_at": time.time(), "payload": payload}
            for key, payload in payloads.items()
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        resolver = Resolver(providers=[provider], cache=LookupCache(path))
        found, missing, searched = _resolve(
            resolver,
            _asking(doi="10.1000/a"),
            _asking(doi="10.1000/b"),
            _asking(title="Some Title"),
        )
        expected = make_record(title="Some Title", authors=(), venue="", provider="counting")
        assert found.identifier_outcomes == (("doi:10.1000/a", LookupOutcome.found(expected)),)
        assert missing.identifier_outcomes == (("doi:10.1000/b", LookupOutcome.not_found()),)
        assert searched.title_search == LookupOutcome((expected,))
        assert provider.calls == []

    def test_every_record_of_an_identifier_entry_is_profiled(self):
        # An identifier entry holds records as a search's does, and none is
        # dropped: the second record here is the cited work. A bundle built
        # by hand from the same outcomes is classified the same way.
        citation = _asking(doi="10.1000/x", title="Some Title", author="Ada Lovelace", year=2020)
        entry = {
            "records": [
                {"title": "Another Work", "year": 2001},
                {"title": "Some Title", "authors": ["Ada Lovelace"], "year": 2020},
            ]
        }
        provider = FixtureProvider({"closed_world": True, "outcomes": {"doi:10.1000/x": entry}})
        (bundle,) = _resolve(Resolver(providers=[provider]), citation)
        titles = [record.title for _, record, _ in bundle.identifier_profiles]
        assert titles == ["Another Work", "Some Title"]
        assert bundle.short_circuit and bundle.title_search is None
        by_hand = dataclasses.replace(
            bundle, identifier_profiles=(), search_profiles=(), thresholds=None
        )
        for given_bundle in (bundle, by_hand):
            verdict = classify(citation, given_bundle, ClassifierConfig())
            assert verdict.status is VerdictStatus.VERIFIED
            assert verdict.matched_record.title == "Some Title"

    def test_fixture_answers_never_reach_the_cache(self, exemplar_citations):
        class Refusing(LookupCache):
            def get(self, key, now=None):
                raise AssertionError(f"cache read for {key}")

            def put(self, key, payload, now=None):
                raise AssertionError(f"cache write for {key}")

        resolver = Resolver(providers=[packaged_fixture_provider()], cache=Refusing())
        bundles = list(resolver.resolve_all(exemplar_citations, jobs=2))
        assert all(isinstance(b, ResolutionBundle) for b in bundles)
        assert all(b.identifier_outcomes or b.title_search for b in bundles)

    @pytest.mark.parametrize(
        "name, endpoint",
        [("counting", "http://other"), ("other", "http://first")],
        ids=["other-endpoint", "other-name"],
    )
    def test_row_answers_only_the_source_that_wrote_it(self, tmp_path, name, endpoint):
        path = tmp_path / "c.jsonl"
        outcomes = {"doi:10.1000/x": {"record": {"title": "Some Title"}}}
        first = CountingProvider(outcomes, name="counting", endpoint="http://first")
        _doi_outcome(Resolver(providers=[first], cache=LookupCache(path)), "10.1000/x")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        second = CountingProvider(name=name, endpoint=endpoint)
        outcome = _doi_outcome(Resolver(providers=[second], cache=LookupCache(path)), "10.1000/x")
        assert outcome == LookupOutcome.not_found()
        assert second.calls == ["doi:10.1000/x"]
        # The same source reads the first row and is not asked.
        same = CountingProvider(name="counting", endpoint="http://first")
        outcome = _doi_outcome(Resolver(providers=[same], cache=LookupCache(path)), "10.1000/x")
        assert outcome.record.title == "Some Title"
        assert same.calls == []

    def test_network_provider_needs_a_config(self):
        class Bare:
            def lookup_doi(self, doi):
                return LookupOutcome.not_found()

        with pytest.raises(TypeError, match="ProviderConfig"):
            Resolver(providers=[Bare()])

    def test_no_provider_for_op(self):
        resolver = Resolver(providers=[])
        (bundle,) = _resolve(resolver, _asking(doi="10.1000/x", title="t"))
        assert bundle.identifier_outcomes[0][1].cause == "no_provider"
        assert bundle.title_search.cause == "no_provider"

    def test_short_circuit_skips_searches(self):
        record = {
            "title": "Deep learning",
            "authors": ["Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"],
            "venue": "Nature",
            "year": 2015,
        }
        provider = CountingProvider(
            outcomes={"doi:10.1038/nature14539": {"status": "found", "record": record}}
        )
        resolver = Resolver(providers=[provider])
        citation = make_citation(
            authors=("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"),
            title="Deep learning",
            year=2015,
            identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),),
        )
        bundle = resolver.resolve_citation(citation)
        assert bundle.short_circuit
        assert bundle.title_search is None
        assert bundle.author_search is None
        assert provider.calls == ["doi:10.1038/nature14539"]

    def test_author_search_skipped_for_placeholder_authors(self):
        provider = CountingProvider()
        resolver = Resolver(providers=[provider])
        citation = make_citation(authors=("Firstname Lastname",), title="T", year=2020)
        resolver.resolve_citation(citation)
        assert "author" not in provider.calls

    def test_author_search_skipped_without_year(self):
        provider = CountingProvider()
        resolver = Resolver(providers=[provider])
        citation = make_citation(year=None)
        resolver.resolve_citation(citation)
        assert "author" not in provider.calls

    def test_invalid_identifier_not_looked_up(self):
        provider = CountingProvider()
        resolver = Resolver(providers=[provider])
        citation = make_citation(
            identifiers=(make_identifier(IdentifierKind.ARXIV, "XXXX.XXXXX"),)
        )
        bundle = resolver.resolve_citation(citation)
        assert bundle.identifier_outcomes == ()
        assert not any(c.startswith("arxiv:") for c in provider.calls)

    def test_cached_pipeline_verdicts_identical(self, tmp_path, exemplar_citations, vocab):
        path = tmp_path / "cache.jsonl"
        config = ClassifierConfig(vocab=vocab)

        warm_provider = CountingProvider(fixture=packaged_fixture_provider())
        warm = Resolver(providers=[warm_provider], cache=LookupCache(path))
        first = [classify_citation(c, warm, config) for c in exemplar_citations]
        assert warm_provider.calls

        cold_provider = CountingProvider(fixture=packaged_fixture_provider())
        cold = Resolver(providers=[cold_provider], cache=LookupCache(path))
        second = [classify_citation(c, cold, config) for c in exemplar_citations]
        assert cold_provider.calls == []
        assert first == second


_ARXIV = ProviderConfig(name="arxiv", base_endpoint="http://stub/api/query")


def _papers(n: int) -> dict[str, Paper]:
    return {
        f"2101.{i:05d}": Paper(f"Paper number {i}", ("Ada Lovelace",), 2021)
        for i in range(n)
    }


def _arxiv_citations(ids) -> list:
    return [
        make_citation(key=f"c{n}", identifiers=(make_identifier(IdentifierKind.ARXIV, i),))
        for n, i in enumerate(ids)
    ]


def _arxiv_outcomes(bundles) -> list[LookupOutcome]:
    """The arXiv lookup outcome of each bundle of _arxiv_citations."""
    return [b.identifier_outcomes[0][1] for b in bundles]


class TestPrefetch:
    """The arXiv lane's first job, one batch of every pending id (the
    prefetch). A ladder that asks for an id in it waits on it, so its
    requests come first."""

    @pytest.mark.parametrize("n, sizes", [(1, [1]), (100, [100]), (101, [100, 1])])
    def test_clean_ids_take_one_request_per_hundred(self, n, sizes):
        papers = _papers(n)
        ids = list(papers)
        session = FakeArxivSession(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        # Each id is cited twice and goes out once, in first-appearance order.
        bundles = list(resolver.resolve_all(_arxiv_citations(ids + ids), jobs=1))
        assert session.requests == [
            {"id_list": ",".join(ids[start : start + size]), "max_results": size}
            for start, size in zip((0, 100), sizes)
        ]
        assert all(o.status is LookupStatus.FOUND for o in _arxiv_outcomes(bundles))

    def test_failing_id_alone_is_unavailable(self, tmp_path):
        papers = _papers(10)
        ids = list(papers)
        bad = ids[6]
        session = FakeArxivSession(papers, failing={bad})
        cache = LookupCache(tmp_path / "c.jsonl")
        client = ArxivClient(_ARXIV, session=session)
        resolver = Resolver(providers=[client], cache=cache)
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        # Halving a failed batch isolates the failing id in a request of its
        # own, which is sent once: its ladder reads that outcome.
        assert session.requests[0]["max_results"] == 10
        assert session.requests.count({"id_list": bad, "max_results": 1}) == 1
        assert len(session.requests) <= 1 + 2 * math.ceil(math.log2(len(ids)))
        assert [i for i in ids if cache.get(_cache_key(client, f"arxiv:{i}")) is None] == [bad]

        single = ArxivClient(_ARXIV, session=FakeArxivSession(papers, failing={bad}))
        got = dict(zip(ids, _arxiv_outcomes(bundles)))
        assert got == {i: single.lookup_arxiv(i) for i in ids}
        assert got[bad] == LookupOutcome.unavailable("http_5xx")
        assert all(got[i].status is LookupStatus.FOUND for i in ids if i != bad)

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_outage_stops_splitting(self, n):
        papers = _papers(n)
        ids = list(papers)
        session = FakeArxivSession(papers, failing=ids)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        # The batch, then its two halves: both fail whole, so no more splits.
        assert [r["max_results"] for r in session.requests[:3]] == [n, (n + 1) // 2, n // 2]
        assert _arxiv_outcomes(bundles) == [LookupOutcome.unavailable("http_5xx")] * n
        # Ids that failed in a request of their own are not sent again; the
        # rest go out once each on the per-id path.
        alone = [i for i in (ids[: (n + 1) // 2], ids[(n + 1) // 2 :]) if len(i) == 1]
        assert len(session.requests) - 3 == n - len(alone)
        assert all(r["max_results"] == 1 for r in session.requests[3:])

    def test_rate_limited_batch_is_sent_once_more_whole(self):
        papers = _papers(10)
        ids = list(papers)
        session = FakeArxivSession(papers, failing=ids, failing_status=429)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        whole = {"id_list": ",".join(ids), "max_results": 10}
        assert session.requests[:2] == [whole, whole]
        # Every id then goes out once on the per-id path: n + 2 requests.
        assert _arxiv_outcomes(bundles) == [LookupOutcome.unavailable("rate_limited")] * 10
        assert [r["id_list"] for r in session.requests[2:]] == ids

    @pytest.mark.parametrize("status, sizes", [(429, [10, 10]), (503, [10, 5, 5])])
    def test_flaky_id_settles_the_batch(self, status, sizes):
        # An id that fails its first request only, as a briefly overloaded
        # server would: a 429 batch is sent again whole, a 503 one in halves.
        papers = _papers(10)
        ids = list(papers)
        session = FakeArxivSession(papers, failing_status=status, fail_once={ids[3]})
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        assert [r["max_results"] for r in session.requests] == sizes
        assert all(o.status is LookupStatus.FOUND for o in _arxiv_outcomes(bundles))

    def test_rate_limited_half_ends_the_splitting(self):
        # The batch fails with a 503, so it is split; its first half is
        # answered 429, which stops the splitting. Each id's ladder then
        # sends its own request.
        papers = _papers(10)
        ids = list(papers)

        class Scripted(FakeArxivSession):
            statuses = [503, 429]

            def get(self, url, params=None, timeout=None):
                if not self.statuses:
                    return super().get(url, params, timeout)
                self.requests.append(dict(params))
                return FakeResponse(self.statuses.pop(0), "")

        session = Scripted(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        assert [r["max_results"] for r in session.requests] == [10, 5] + [1] * 10
        assert [r["id_list"] for r in session.requests[2:]] == ids
        assert all(o.status is LookupStatus.FOUND for o in _arxiv_outcomes(bundles))

    def test_failed_ids_are_retried_after_the_next_prefetch(self):
        papers = _papers(1)
        (only,) = papers
        session = FakeArxivSession(papers, failing={only})
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        (bundle,) = resolver.resolve_all(_arxiv_citations([only]), jobs=1)
        assert _arxiv_outcomes([bundle])[0].status is LookupStatus.UNAVAILABLE
        assert len(session.requests) == 1
        session.failing = frozenset()
        (bundle,) = resolver.resolve_all(_arxiv_citations([only]), jobs=1)
        assert _arxiv_outcomes([bundle])[0].status is LookupStatus.FOUND
        assert len(session.requests) == 2

    def test_skips_settled_and_cached_ids(self, tmp_path):
        papers = _papers(3)
        ids = list(papers)
        session = FakeArxivSession(papers)
        client = ArxivClient(_ARXIV, session=session)
        cache = LookupCache(tmp_path / "c.jsonl")
        cache.put(
            _cache_key(client, f"arxiv:{ids[0]}"),
            {"kind": "lookup", "status": "not_found", "record": None},
        )
        resolver = Resolver(providers=[client], cache=cache)
        _resolve(resolver, *_arxiv_citations([ids[1]]))
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        assert session.requests == [
            {"id_list": ids[1], "max_results": 1},
            {"id_list": ids[2], "max_results": 1},
        ]
        assert [o.status for o in _arxiv_outcomes(bundles)] == [
            LookupStatus.NOT_FOUND, LookupStatus.FOUND, LookupStatus.FOUND
        ]

    def test_cached_id_that_does_not_decode_is_sent(self, tmp_path):
        papers = _papers(2)
        ids = list(papers)
        session = FakeArxivSession(papers)
        client = ArxivClient(_ARXIV, session=session)
        cache = LookupCache(tmp_path / "c.jsonl")
        cache.put(_cache_key(client, f"arxiv:{ids[0]}"), {"status": "found", "record": {"title": 5}})
        resolver = Resolver(providers=[client], cache=cache)
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 2}]
        assert all(o.status is LookupStatus.FOUND for o in _arxiv_outcomes(bundles))

    def test_row_of_another_arxiv_endpoint_is_sent(self, tmp_path):
        papers = _papers(2)
        ids = list(papers)
        cache = LookupCache(tmp_path / "c.jsonl")
        other = ArxivClient(ProviderConfig(name="arxiv", base_endpoint="http://other"))
        cache.put(_cache_key(other, f"arxiv:{ids[0]}"), {"status": "not_found"})
        session = FakeArxivSession(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)], cache=cache)
        bundles = list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 2}]
        assert all(o.status is LookupStatus.FOUND for o in _arxiv_outcomes(bundles))

    def test_needs_a_batching_arxiv_owner(self):
        ids = list(_papers(3))
        session = FakeArxivSession(_papers(3))
        counting = CountingProvider()
        resolver = Resolver(providers=[counting, ArxivClient(_ARXIV, session=session)])
        list(resolver.resolve_all(_arxiv_citations(ids), jobs=1))
        # No batch: each ladder asks the owner for its own id.
        assert session.requests == []
        assert [c for c in counting.calls if c.startswith("arxiv:")] == [f"arxiv:{i}" for i in ids]


class TestArxivDoi:
    """arXiv's DataCite DOIs, 10.48550/arXiv.<id>, are looked up at arXiv."""

    @pytest.mark.parametrize(
        "doi, arxiv_id",
        [
            ("10.48550/arXiv.1706.03762", "1706.03762"),
            ("https://doi.org/10.48550/ARXIV.2101.00001v2", "2101.00001"),
            ("10.48550/arxiv.hep-th/9711200", "hep-th/9711200"),
        ],
    )
    def test_arxiv_doi_is_looked_up_as_its_id(self, doi, arxiv_id):
        provider = CountingProvider()
        c = make_citation(identifiers=(make_identifier(IdentifierKind.DOI, doi),))
        bundle = Resolver(providers=[provider]).resolve_citation(c)
        assert provider.calls[0] == f"arxiv:{arxiv_id}"
        assert [label for label, _ in bundle.identifier_outcomes] == [f"arxiv:{arxiv_id}"]

    def test_doi_and_eprint_of_one_paper_are_one_lookup(self):
        provider = CountingProvider()
        c = make_citation(
            identifiers=(
                make_identifier(IdentifierKind.DOI, "10.48550/arXiv.1706.03762"),
                make_identifier(IdentifierKind.ARXIV, "1706.03762v5"),
            )
        )
        Resolver(providers=[provider]).resolve_citation(c)
        assert provider.calls.count("arxiv:1706.03762") == 1
        assert not any(call.startswith("doi:") for call in provider.calls)

    def test_other_dois_still_go_to_crossref(self):
        provider = CountingProvider()
        c = make_citation(
            identifiers=(make_identifier(IdentifierKind.DOI, "10.48550/zenodo.12345"),)
        )
        Resolver(providers=[provider]).resolve_citation(c)
        assert provider.calls[0] == "doi:10.48550/zenodo.12345"

    def test_arxiv_doi_joins_the_batched_prepass(self):
        papers = _papers(3)
        ids = list(papers)
        session = FakeArxivSession(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        citations = _arxiv_citations(ids[:2]) + [
            make_citation(
                key="doi",
                identifiers=(make_identifier(IdentifierKind.DOI, f"10.48550/arXiv.{ids[2]}"),),
            )
        ]
        list(resolver.resolve_all(citations, jobs=1))
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 3}]


class TestResolveAll:
    def test_bundles_in_input_order(self):
        papers = _papers(6)
        ids = list(papers) + ["2101.99999"]
        citations = _arxiv_citations(ids)
        session = FakeArxivSession(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = list(resolver.resolve_all(citations, jobs=3))
        assert bundles == [resolver.resolve_citation(c) for c in citations]
        assert [b.citation_key for b in bundles] == [c.source_key for c in citations]
        # One batch request settled every id; the ladders read the cache.
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 7}]

    def test_failed_prepass_leaves_ids_to_the_per_id_path(self):
        class BrokenPrepass(FakeArxivSession):
            def get(self, url, params=None, timeout=None):
                if "," in params["id_list"]:
                    raise RuntimeError("session failed mid-request")
                return super().get(url, params=params, timeout=timeout)

        papers = _papers(3)
        session = BrokenPrepass(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = list(resolver.resolve_all(_arxiv_citations(papers), jobs=2))
        statuses = [b.identifier_outcomes[0][1].status for b in bundles]
        assert statuses == [LookupStatus.FOUND] * 3
        assert sorted(r["id_list"] for r in session.requests) == sorted(papers)

    def test_raising_citation_yields_its_exception(self):
        class Failing(CountingProvider):
            def lookup_arxiv(self, arxiv_id):
                if arxiv_id == ids[1]:
                    raise RuntimeError("boom")
                return super().lookup_arxiv(arxiv_id)

        ids = list(_papers(3))
        resolver = Resolver(providers=[Failing()])
        results = list(resolver.resolve_all(_arxiv_citations(ids), jobs=2))
        assert isinstance(results[1], RuntimeError)
        assert [r.citation_key for r in (results[0], results[2])] == ["c0", "c2"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            list(Resolver(providers=[]).resolve_all([], jobs=0))

    def test_doi_ladder_runs_while_the_batch_is_held(self):
        papers = _papers(3)
        session = _HeldArxivSession(papers)
        dois = _DoiProvider()
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session), dois])
        # The DOI-only citation comes last in the input and is resolved first.
        citations = _arxiv_citations(papers) + [_doi_citation("10.1000/doi-only")]
        consumer, results = _consume(resolver, citations, jobs=2)
        try:
            assert dois.looked_up.wait(timeout=5)
            assert not session.done.is_set()
        finally:
            session.release.set()
            consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert [b.citation_key for b in results] == [c.source_key for c in citations]
        assert results[-1].identifier_outcomes[0][1].status is LookupStatus.FOUND

    def test_arxiv_citations_get_the_batch_outcome(self):
        papers = _papers(3)
        ids = list(papers) + ["2101.99999"]
        session = FakeArxivSession(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session), _DoiProvider()])
        citations = [_doi_citation("10.1000/first")] + _arxiv_citations(ids)
        bundles = list(resolver.resolve_all(citations, jobs=4))
        statuses = [b.identifier_outcomes[0][1].status for b in bundles[1:]]
        assert statuses == [LookupStatus.FOUND] * 3 + [LookupStatus.NOT_FOUND]
        # The ladders read what the one batch settled; no id went out alone.
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 4}]

    def test_raising_prepass_releases_the_waiting_ladders(self):
        class Raising(FakeArxivSession):
            def get(self, url, params=None, timeout=None):
                if "," in params["id_list"]:
                    raise RuntimeError("session failed mid-request")
                return super().get(url, params=params, timeout=timeout)

        papers = _papers(3)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=Raising(papers))])
        consumer, results = _consume(resolver, _arxiv_citations(papers), jobs=2)
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        statuses = [b.identifier_outcomes[0][1].status for b in results]
        assert statuses == [LookupStatus.FOUND] * 3

    def test_one_job_finishes(self):
        papers = _papers(3)
        session = FakeArxivSession(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session), _DoiProvider()])
        citations = _arxiv_citations(papers) + [_doi_citation("10.1000/x")]
        consumer, results = _consume(resolver, citations, jobs=1)
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert [b.citation_key for b in results] == [c.source_key for c in citations]
        assert len(session.requests) == 1

    def test_no_thread_outlives_the_iteration(self):
        # Threads left by earlier tests may end meanwhile; only a thread
        # started here and still alive fails the test.
        before = set(threading.enumerate())

        def started_here():
            return [t for t in threading.enumerate() if t not in before]

        papers = _papers(3)
        citations = [_doi_citation("10.1000/x")] + _arxiv_citations(papers)

        def resolver(session):
            return Resolver(providers=[ArxivClient(_ARXIV, session=session), _DoiProvider()])

        assert len(list(resolver(FakeArxivSession(papers)).resolve_all(citations, 2))) == 4
        assert started_here() == []
        # Closed after the first bundle, while the batch is still held.
        session = _HeldArxivSession(papers)
        bundles = resolver(session).resolve_all(citations, 2)
        assert next(bundles).citation_key == "doi"
        assert not session.done.is_set()
        session.release.set()
        bundles.close()
        assert started_here() == []

    def test_http_sessions_are_closed_at_the_end(self):
        class Closing(FakeArxivSession):
            closed = 0

            def close(self):
                self.closed += 1

        papers = _papers(2)
        session = Closing(papers)
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session)])
        bundles = resolver.resolve_all(_arxiv_citations(papers), jobs=2)
        next(bundles)
        assert session.closed == 0
        list(bundles)
        assert session.closed == 1

    def test_fixture_runs_scan_once_and_start_no_prepass(self, monkeypatch):
        # A fixture owns lookup_arxiv without lookup_arxiv_ids: no batch, and
        # a fixture is read in place, so no lane and no thread.
        scanned, started = [], []
        lookup_ids, start = resolve_module._lookup_ids, threading.Thread.start

        def counting_lookup_ids(citation):
            scanned.append(citation.source_key)
            return lookup_ids(citation)

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(resolve_module, "_lookup_ids", counting_lookup_ids)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        resolver = Resolver(providers=[packaged_fixture_provider()])
        list(resolver.resolve_all(_arxiv_citations(_papers(3)), jobs=2))
        assert sorted(scanned) == ["c0", "c1", "c2"]  # each ladder's own scan only
        assert started == []


class _HeldArxivSession(FakeArxivSession):
    """Holds every request until release is set (at most 10 s, so a broken
    test fails rather than hangs); done is set when the first one returns."""

    def __init__(self, papers):
        super().__init__(papers)
        self.release = threading.Event()
        self.done = threading.Event()

    def get(self, url, params=None, timeout=None):
        self.release.wait(timeout=10)
        try:
            return super().get(url, params=params, timeout=timeout)
        finally:
            self.done.set()


class _DoiProvider:
    """Finds every DOI; looked_up is set after the first lookup."""

    config = ProviderConfig(name="dois")

    def __init__(self):
        self.looked_up = threading.Event()

    def lookup_doi(self, doi):
        self.looked_up.set()
        return LookupOutcome.found(make_record())


def _doi_citation(doi: str):
    return make_citation(key="doi", identifiers=(make_identifier(IdentifierKind.DOI, doi),))


def _consume(resolver, citations, jobs):
    """A started thread that collects resolve_all's bundles into the list
    returned with it."""
    results: list = []
    thread = threading.Thread(target=lambda: results.extend(resolver.resolve_all(citations, jobs)))
    thread.start()
    return thread, results


class _ScriptedDoiProvider:
    """Counts its DOI lookups; lookup n answers answers[n]."""

    config = ProviderConfig(name="scripted")

    def __init__(self, *answers):
        self.answers = answers
        self.calls = 0

    def lookup_doi(self, doi):
        self.calls += 1
        return self.answers[self.calls - 1]


class TestInFlight:
    """Citations that wait on one request for a key: when it comes back
    Unavailable, the first takes that outcome and each other sends its own."""

    def test_waiter_sends_its_own_after_an_unavailable_outcome(self):
        provider = _ScriptedDoiProvider(
            LookupOutcome.unavailable("http_5xx"), LookupOutcome.found(make_record())
        )
        citations = _doi_citations(2, "10.1000/shared")
        first, second = _resolve(Resolver(providers=[provider]), *citations)
        assert provider.calls == 2
        assert first.identifier_outcomes[0][1] == LookupOutcome.unavailable("http_5xx")
        assert second.identifier_outcomes[0][1].status is LookupStatus.FOUND


class _OneOp:
    """A network provider that owns op alone and answers each call with
    answer, once release is set (at most 10 s) when one is given. entered is
    set at the first call; threads holds every thread that called."""

    def __init__(self, name, op, answer, release=None):
        self.config = ProviderConfig(name=name)
        self.entered = threading.Event()
        self.threads: set[threading.Thread] = set()

        def call(*args):
            self.threads.add(threading.current_thread())
            self.entered.set()
            if release is not None:
                release.wait(timeout=10)
            return answer

        setattr(self, op, call)


def _doi_citations(n: int, doi=None) -> list:
    """n citations with a DOI each (doi for all of them when given)."""
    return [
        make_citation(
            key=f"c{i}",
            title=f"Title {i}",
            identifiers=(make_identifier(IdentifierKind.DOI, doi or f"10.1000/{i}"),),
        )
        for i in range(n)
    ]


class TestLanes:
    """Each network provider has a lane of its own: up to jobs threads that
    send its requests, while the ladders run on the calling thread."""

    def test_one_job_still_keeps_two_providers_busy(self):
        release = threading.Event()
        dois = _OneOp("dois", "lookup_doi", LookupOutcome.not_found(), release)
        titles = _OneOp("titles", "search_title", LookupOutcome(), release)
        citations = [_doi_citation("10.1000/held"), make_citation(key="titled")]
        consumer, results = _consume(Resolver(providers=[dois, titles]), citations, jobs=1)
        try:
            # The DOI lookup is held, and the other citation's search starts.
            assert dois.entered.wait(timeout=5)
            assert titles.entered.wait(timeout=5)
        finally:
            release.set()
            consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert [b.citation_key for b in results] == ["doi", "titled"]

    def test_each_provider_has_at_most_jobs_threads_of_its_own(self, monkeypatch):
        started, start = [], threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        dois = _OneOp("dois", "lookup_doi", LookupOutcome.not_found())
        titles = _OneOp("titles", "search_title", LookupOutcome())
        resolver = Resolver(providers=[dois, titles])
        assert len(list(resolver.resolve_all(_doi_citations(200), jobs=2))) == 200
        assert 1 <= len(dois.threads) <= 2
        assert 1 <= len(titles.threads) <= 2
        assert not dois.threads & titles.threads
        assert len(started) <= 4

    def test_arxiv_id_after_a_doi_goes_out_in_the_batch(self):
        papers = _papers(3)
        ids = list(papers)
        session = _HeldArxivSession(papers)
        dois = CountingProvider()
        resolver = Resolver(providers=[ArxivClient(_ARXIV, session=session), dois])
        both = make_citation(
            key="both",
            identifiers=(
                make_identifier(IdentifierKind.DOI, "10.1000/first"),
                make_identifier(IdentifierKind.ARXIV, ids[2]),
            ),
        )
        consumer, results = _consume(resolver, _arxiv_citations(ids[:2]) + [both], jobs=1)
        try:
            # The DOI goes out while the batch, which holds the id after it,
            # is held.
            deadline = time.monotonic() + 5
            while "doi:10.1000/first" not in dois.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            assert "doi:10.1000/first" in dois.calls
            assert not session.done.is_set()
        finally:
            session.release.set()
            consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 3}]
        statuses = [outcome.status for _, outcome in results[2].identifier_outcomes]
        assert statuses == [LookupStatus.NOT_FOUND, LookupStatus.FOUND]

    def test_many_lane_threads_send_each_key_once(self):
        # More lane threads than cores, switching often: each key still goes
        # out once however many citations share it, and every bundle comes
        # back in input order.
        provider = CountingProvider()
        citations = _doi_citations(300) + _doi_citations(300)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer, bundles = _consume(Resolver(providers=[provider]), citations, jobs=8)
            consumer.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not consumer.is_alive()
        assert [b.citation_key for b in bundles] == [c.source_key for c in citations]
        dois = sorted(c for c in provider.calls if c.startswith("doi:"))
        assert dois == sorted(f"doi:10.1000/{i}" for i in range(300))
        assert provider.calls.count("title") == 300
        assert provider.calls.count("author") == 1

    @pytest.mark.parametrize(
        "answer, requests",
        [(LookupOutcome.found(make_record()), 1), (LookupOutcome.unavailable("http_5xx"), 2)],
        ids=["found", "unavailable"],
    )
    def test_citations_sharing_a_key(self, answer, requests):
        # A key asked for twice goes out once, unless it comes back
        # Unavailable: then the second citation sends its own request.
        provider = _ScriptedDoiProvider(answer, answer)
        citations = _doi_citations(2, doi="10.1000/shared")
        bundles = list(Resolver(providers=[provider]).resolve_all(citations, jobs=1))
        assert provider.calls == requests
        assert [b.identifier_outcomes for b in bundles] == [(("doi:10.1000/shared", answer),)] * 2


# A small world of works for TestReferenceModel. Work k has DOI 10.1000/w<k>,
# one title and one author; citations mix their fields, so one citation's
# DOI is another's second identifier and keys repeat across ladders. Every
# op argument is already in its lookup form (lowercase DOI, normalized
# title, lowercase surname), so (op, args) is the cache's key.
_TITLES = (
    "graph kernels for molecules",
    "a survey of citation errors",
    "deep residual learning",
    "sparse attention at scale",
)
_AUTHORS = ("Ada Lovelace", "Alan Turing", "Grace Hopper", "Emmy Noether")
_YEARS = (2001, 2002, 2003, 2004)
_WORKS = range(len(_TITLES))
_KEYS = (
    [("lookup_doi", (f"10.1000/w{k}",)) for k in _WORKS]
    + [("search_title", (t,)) for t in _TITLES]
    + [("search_author_year", (normalize_name(a).surname, y)) for a in _AUTHORS for y in _YEARS]
)
_FATES = ("match", "other", "not_found", "unavailable", "raise")


def _work_record(k: int):
    return make_record(
        title=_TITLES[k],
        authors=(_AUTHORS[k],),
        year=_YEARS[k],
        identifiers=(make_identifier(IdentifierKind.DOI, f"10.1000/w{k}"),),
    )


class _PureProvider:
    """A network provider that owns ops and answers each as a pure function
    of its (op, args): fates[key] picks the work it names ("match"),
    another work ("other"), NotFound or no records, Unavailable, or a
    raise. sent lists each call; each one first sleeps delays[key]."""

    def __init__(self, name, ops, fates, delays=None):
        self.config = ProviderConfig(name=name)
        self.sent: list = []
        self._fates, self._delays = fates, delays or {}
        for op in ops:
            setattr(self, op, lambda *args, op=op: self._answer(op, args))

    def _answer(self, op, args):
        self.sent.append((op, args))
        time.sleep(self._delays.get((op, args), 0))
        fate = self._fates[op, args]
        if fate == "raise":
            raise RuntimeError(f"{op}{args} raised")
        # The work the key names; for an author-year key, the year's work.
        k = _KEYS.index((op, args)) % len(_TITLES)
        record = _work_record(k if fate == "match" else (k + 1) % len(_TITLES))
        if op == "lookup_doi":
            if fate == "unavailable":
                return LookupOutcome.unavailable("http_5xx")
            return LookupOutcome.not_found() if fate == "not_found" else LookupOutcome.found(record)
        if fate == "unavailable":
            return LookupOutcome(cause="http_5xx")
        return LookupOutcome() if fate == "not_found" else LookupOutcome(records=(record,))


def _providers(fates, delays=None) -> list:
    return [
        _PureProvider("dois", ("lookup_doi",), fates, delays),
        _PureProvider("works", ("search_title", "search_author_year"), fates, delays),
    ]


@st.composite
def _bibliographies(draw):
    n = draw(st.integers(1, 8))
    pick = st.sampled_from(_WORKS)
    citations = [
        make_citation(
            key=f"c{i}",
            title=_TITLES[draw(pick)],
            authors=(_AUTHORS[draw(pick)],),
            year=_YEARS[draw(pick)],
            identifiers=tuple(
                make_identifier(IdentifierKind.DOI, f"10.1000/w{k}")
                for k in draw(st.lists(pick, max_size=2, unique=True))
            ),
        )
        for i in range(n)
    ]
    fates = {key: draw(st.sampled_from(_FATES)) for key in _KEYS}
    delays = {key: draw(st.sampled_from((0, 0.0002, 0.001))) for key in _KEYS}
    return citations, fates, delays


def _comparable(results) -> list:
    """results with each exception as its type and message."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r for r in results]


class TestReferenceModel:
    """resolve_all against tests.oracles.resolve_in_order, a sequential
    model with a plain memo, over providers that answer each key as a pure
    function of it."""

    @settings(max_examples=40)
    @given(case=_bibliographies(), jobs=st.integers(1, 8))
    def test_lanes_agree_with_the_sequential_model(self, case, jobs):
        citations, fates, delays = case
        model = _providers(fates)
        expected, asks = resolve_in_order(Resolver(model)._ladder, model, citations)

        before = set(threading.enumerate())
        providers = _providers(fates, delays)
        got = list(Resolver(providers).resolve_all(citations, jobs))
        assert _comparable(got) == _comparable(expected)
        sent = [key for p in providers for key in p.sent]
        for key in set(sent):
            # A settled key goes out once; an unavailable or raising one at
            # most once for each ladder that asked for it.
            settled = fates[key] in ("match", "other", "not_found")
            assert sent.count(key) <= (1 if settled else asks[key]), key
        assert not [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith("citeaudit-")
        ]


class TestResolutionBundle:
    def test_attempts_lists_every_lookup(self):
        bundle = ResolutionBundle(
            citation_key="k",
            identifier_outcomes=(
                ("doi:10.1/x", LookupOutcome.unavailable("timeout")),
            ),
            title_search=LookupOutcome(cause="offline"),
            author_search=LookupOutcome(records=(make_record(),)),
        )
        attempts = bundle.attempts()
        assert ("doi:10.1/x", True, "timeout") in attempts
        assert ("title_search", True, "offline") in attempts
        assert ("author_search", False, None) in attempts

    def test_candidate_pools(self):
        # The resolver profiles every record it puts in the bundle, in order:
        # Found identifier records, then title-search, then author-search hits.
        found = {"title": "Found via id", "authors": ["Charles Babbage"], "year": 2020}
        titled = [{"title": f"Found via title {i}", "year": 2020} for i in range(2)]
        authored = {"title": "Found via author", "authors": ["Ada Lovelace"], "year": 2020}
        provider = CountingProvider(
            outcomes={
                "doi:10.1234/x": {"record": found},
                "doi:10.1234/gone": {"status": "not_found"},
                "title:a sample title": {"records": titled},
                "author:lovelace:2020": {"records": [authored]},
            }
        )
        resolver = Resolver(providers=[provider])
        citation = make_citation(
            identifiers=(
                make_identifier(IdentifierKind.DOI, "10.1234/x"),
                make_identifier(IdentifierKind.DOI, "10.1234/gone"),
            )
        )
        bundle = resolver.resolve_citation(citation)
        assert not bundle.short_circuit
        assert [(label, r.title) for label, r, _ in bundle.identifier_profiles] == [
            ("doi:10.1234/x", "Found via id")
        ]
        assert [r.title for r, _ in bundle.search_profiles] == [
            "Found via title 0",
            "Found via title 1",
            "Found via author",
        ]
        assert bundle.thresholds is resolver.thresholds
        for _, record, profile in bundle.identifier_profiles:
            assert profile == profile_match(citation, record, resolver.thresholds)
        for record, profile in bundle.search_profiles:
            assert profile == profile_match(citation, record, resolver.thresholds)

    def test_full_title_match_profiles_every_title_record(self):
        # A full match still skips the author search, but the title-search
        # records after it are profiled too, so the bundle holds no record
        # without its profile.
        match = {"title": "A sample title", "authors": ["Ada Lovelace"], "year": 2020}
        other = {"title": "Another title", "authors": ["Alan Turing"], "year": 2020}
        provider = CountingProvider(
            outcomes={"title:a sample title": {"records": [match, other]}}
        )
        bundle = Resolver(providers=[provider]).resolve_citation(make_citation())
        assert bundle.short_circuit
        assert bundle.author_search is None
        assert provider.calls == ["title"]
        assert [
            (r.title, p.core_all_match()) for r, p in bundle.search_profiles
        ] == [("A sample title", True), ("Another title", False)]

    def test_hand_built_bundle_carries_no_profiles(self):
        bundle = ResolutionBundle(
            citation_key="k",
            identifier_outcomes=(("doi:x", LookupOutcome.found(make_record())),),
            title_search=LookupOutcome(records=(make_record(),)),
        )
        assert bundle.identifier_profiles == ()
        assert bundle.search_profiles == ()
        assert bundle.thresholds is None
