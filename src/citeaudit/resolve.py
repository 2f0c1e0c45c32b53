"""Resolution of claimed citations against bibliographic providers.

Every sub-lookup returns a three-way outcome: Found, NotFound, or
Unavailable(cause). The distinction is load-bearing: NotFound is evidence
about the citation, Unavailable is evidence about the network, and the two
must never be conflated or a provider outage would look like fabrication.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import quote
from xml.etree import ElementTree

if TYPE_CHECKING:
    import requests

from .identifiers import check_identifier, IdentifierSyntax, make_identifier
from .matching import MatchThresholds, normalize_title, profile_match
from .model import (
    AuthorName,
    IdentifierKind,
    ParsedCitation,
    ResolvedRecord,
    author_from_dict,
    normalize_name,
    record_from_dict,
    record_to_dict,
)
from .ratelimit import TokenBucket

DEFAULT_CACHE_TTL_SECONDS = 30 * 24 * 3600


@dataclass(frozen=True)
class ProviderConfig:
    """Connection settings for one provider."""

    name: str
    base_endpoint: str = ""
    rate_limit: float = 0.0
    timeout: float = 10.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.rate_limit < 0:
            raise ValueError("rate_limit cannot be negative")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class LookupStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class LookupOutcome:
    """Result of resolving a single identifier."""

    status: LookupStatus
    record: ResolvedRecord | None = None
    cause: str | None = None

    @classmethod
    def found(cls, record: ResolvedRecord) -> "LookupOutcome":
        return cls(status=LookupStatus.FOUND, record=record)

    @classmethod
    def not_found(cls) -> "LookupOutcome":
        return cls(status=LookupStatus.NOT_FOUND)

    @classmethod
    def unavailable(cls, cause: str) -> "LookupOutcome":
        return cls(status=LookupStatus.UNAVAILABLE, cause=cause)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a title or author search. cause is set when the search
    itself failed; an empty record list with cause None means the search
    ran and found nothing."""

    records: tuple[ResolvedRecord, ...] = ()
    cause: str | None = None

    @property
    def failed(self) -> bool:
        return self.cause is not None


@dataclass(frozen=True)
class ResolutionBundle:
    """Everything the resolver learned about one citation."""

    citation_key: str
    identifier_outcomes: tuple[tuple[str, LookupOutcome], ...] = ()
    title_search: SearchOutcome | None = None
    author_search: SearchOutcome | None = None
    short_circuit: bool = False

    @property
    def identifier_records(self) -> tuple[ResolvedRecord, ...]:
        return tuple(
            o.record
            for _, o in self.identifier_outcomes
            if o.status is LookupStatus.FOUND and o.record is not None
        )

    @property
    def search_candidates(self) -> tuple[ResolvedRecord, ...]:
        records: list[ResolvedRecord] = []
        for outcome in (self.title_search, self.author_search):
            if outcome is not None:
                records.extend(outcome.records)
        return tuple(records)

    @property
    def all_candidates(self) -> tuple[ResolvedRecord, ...]:
        return self.identifier_records + self.search_candidates

    def attempts(self) -> list[tuple[str, bool, str | None]]:
        """(label, was_unavailable, cause) per sub-lookup actually tried."""
        rows: list[tuple[str, bool, str | None]] = []
        for label, outcome in self.identifier_outcomes:
            rows.append(
                (label, outcome.status is LookupStatus.UNAVAILABLE, outcome.cause)
            )
        if self.title_search is not None:
            rows.append(("title_search", self.title_search.failed, self.title_search.cause))
        if self.author_search is not None:
            rows.append(
                ("author_search", self.author_search.failed, self.author_search.cause)
            )
        return rows


def _fixture_author(raw) -> AuthorName:
    if isinstance(raw, str):
        return normalize_name(raw)
    return author_from_dict(raw)


def _fixture_record(d: dict, provider_name: str) -> ResolvedRecord:
    identifiers = []
    for ident in d.get("identifiers", ()):
        if isinstance(ident, dict):
            identifiers.append(
                make_identifier(IdentifierKind(ident["kind"]), ident["value"])
            )
        else:
            raise ValueError(f"fixture identifier must be an object, got {ident!r}")
    return ResolvedRecord(
        provider=d.get("provider", provider_name),
        title=d.get("title", ""),
        authors=tuple(_fixture_author(a) for a in d.get("authors", ())),
        venue=d.get("venue", ""),
        year=d.get("year"),
        pages=d.get("pages"),
        identifiers=tuple(identifiers),
        provenance_query=d.get("provenance_query", ""),
    )


class FixtureProvider:
    """Offline provider backed by a JSON file of canned outcomes.

    closed_world=True means the fixture is the whole universe: a key that
    is not listed resolves to NotFound (or an empty search). With
    closed_world=False an unlisted key is Unavailable("offline"), because
    the fixture only mirrors a slice of the real sources.
    """

    def __init__(self, source: str | Path | dict, name: str = "fixture"):
        if isinstance(source, (str, Path)):
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        else:
            data = source
        self.name = name
        self.config = ProviderConfig(name=name)
        self.closed_world = bool(data.get("closed_world", False))
        self._outcomes: dict[str, dict] = dict(data.get("outcomes", {}))

    def _lookup(self, key: str) -> LookupOutcome:
        entry = self._outcomes.get(key)
        if entry is None:
            if self.closed_world:
                return LookupOutcome.not_found()
            return LookupOutcome.unavailable("offline")
        status = entry.get("status", "found")
        if status == "found":
            return LookupOutcome.found(_fixture_record(entry["record"], self.name))
        if status == "not_found":
            return LookupOutcome.not_found()
        return LookupOutcome.unavailable(entry.get("cause", "offline"))

    def _search(self, key: str) -> SearchOutcome:
        entry = self._outcomes.get(key)
        if entry is None:
            if self.closed_world:
                return SearchOutcome(records=())
            return SearchOutcome(cause="offline")
        if entry.get("status") == "unavailable":
            return SearchOutcome(cause=entry.get("cause", "offline"))
        return SearchOutcome(
            records=tuple(
                _fixture_record(r, self.name) for r in entry.get("records", ())
            )
        )

    def lookup_doi(self, doi: str) -> LookupOutcome:
        return self._lookup(f"doi:{doi.lower()}")

    def lookup_arxiv(self, arxiv_id: str) -> LookupOutcome:
        return self._lookup(f"arxiv:{arxiv_id.lower()}")

    def search_title(self, title: str) -> SearchOutcome:
        return self._search(f"title:{normalize_title(title)}")

    def search_author_year(self, surname: str, year: int) -> SearchOutcome:
        return self._search(f"author:{surname.lower()}:{year}")


def _new_session() -> requests.Session:
    # requests is imported on first use: it is a large import that offline
    # runs, which never build an HTTP client, would otherwise pay at start-up.
    import requests

    return requests.Session()


def _http_failure_cause(resp: requests.Response) -> str:
    if resp.status_code == 429:
        return "rate_limited"
    if resp.status_code >= 500:
        return "http_5xx"
    return f"http_{resp.status_code}"


class CrossrefClient:
    """DOI resolution against a Crossref-style works endpoint."""

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        self.name = config.name
        self.config = config
        self._session = session or _new_session()

    def lookup_doi(self, doi: str) -> LookupOutcome:
        import requests

        url = f"{self.config.base_endpoint.rstrip('/')}/works/{quote(doi, safe='')}"
        try:
            resp = self._session.get(url, timeout=self.config.timeout)
        except requests.Timeout:
            return LookupOutcome.unavailable("timeout")
        except requests.ConnectionError:
            return LookupOutcome.unavailable("connection")
        if resp.status_code == 404:
            return LookupOutcome.not_found()
        if resp.status_code != 200:
            return LookupOutcome.unavailable(_http_failure_cause(resp))
        try:
            message = resp.json().get("message", {})
        except ValueError:
            return LookupOutcome.unavailable("bad_response")
        return LookupOutcome.found(self._record(message, doi))

    def _record(self, message: dict, doi: str) -> ResolvedRecord:
        titles = message.get("title") or [""]
        container = message.get("container-title") or [""]
        authors = []
        for a in message.get("author", []):
            text = f"{a.get('given', '')} {a.get('family', '')}".strip()
            if text:
                authors.append(normalize_name(text))
        year = None
        issued = message.get("issued", {}).get("date-parts", [[]])
        if issued and issued[0] and isinstance(issued[0][0], int):
            year = issued[0][0]
        return ResolvedRecord(
            provider=self.name,
            title=titles[0],
            authors=tuple(authors),
            venue=container[0],
            year=year,
            pages=message.get("page"),
            identifiers=(
                make_identifier(IdentifierKind.DOI, message.get("DOI", doi)),
            ),
            provenance_query=f"doi:{doi}",
        )


_ATOM_NS = {"atom": "http://www.w3.org/2005/Atom"}


class ArxivClient:
    """Preprint metadata via an arXiv-style Atom query endpoint."""

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        self.name = config.name
        self.config = config
        self._session = session or _new_session()

    def lookup_arxiv(self, arxiv_id: str) -> LookupOutcome:
        import requests

        url = self.config.base_endpoint
        try:
            resp = self._session.get(
                url,
                params={"id_list": arxiv_id, "max_results": 1},
                timeout=self.config.timeout,
            )
        except requests.Timeout:
            return LookupOutcome.unavailable("timeout")
        except requests.ConnectionError:
            return LookupOutcome.unavailable("connection")
        if resp.status_code != 200:
            return LookupOutcome.unavailable(_http_failure_cause(resp))
        try:
            root = ElementTree.fromstring(resp.text)
        except ElementTree.ParseError:
            return LookupOutcome.unavailable("bad_response")
        entries = root.findall("atom:entry", _ATOM_NS)
        if not entries:
            return LookupOutcome.not_found()
        entry = entries[0]
        entry_id = entry.findtext("atom:id", default="", namespaces=_ATOM_NS)
        title = " ".join(
            entry.findtext("atom:title", default="", namespaces=_ATOM_NS).split()
        )
        # The API reports bad ids as a pseudo-entry under api/errors.
        if "api/errors" in entry_id or title.lower() == "error":
            return LookupOutcome.not_found()
        authors = tuple(
            normalize_name(name_el.text.strip())
            for name_el in entry.findall("atom:author/atom:name", _ATOM_NS)
            if name_el.text and name_el.text.strip()
        )
        published = entry.findtext("atom:published", default="", namespaces=_ATOM_NS)
        year = int(published[:4]) if published[:4].isdigit() else None
        return LookupOutcome.found(
            ResolvedRecord(
                provider=self.name,
                title=title,
                authors=authors,
                venue="arXiv",
                year=year,
                identifiers=(make_identifier(IdentifierKind.ARXIV, arxiv_id),),
                provenance_query=f"arxiv:{arxiv_id}",
            )
        )


class OpenAlexClient:
    """Title and author-year search against an OpenAlex-style works index."""

    def __init__(self, config: ProviderConfig, session: requests.Session | None = None):
        self.name = config.name
        self.config = config
        self._session = session or _new_session()

    def _get(self, params: dict) -> tuple[list[dict] | None, str | None]:
        import requests

        url = f"{self.config.base_endpoint.rstrip('/')}/works"
        try:
            resp = self._session.get(url, params=params, timeout=self.config.timeout)
        except requests.Timeout:
            return None, "timeout"
        except requests.ConnectionError:
            return None, "connection"
        if resp.status_code != 200:
            return None, _http_failure_cause(resp)
        try:
            return resp.json().get("results", []), None
        except ValueError:
            return None, "bad_response"

    def _record(self, work: dict, query: str) -> ResolvedRecord:
        authors = []
        for authorship in work.get("authorships", []):
            name = (authorship.get("author") or {}).get("display_name", "")
            if name:
                authors.append(normalize_name(name))
        venue = ""
        location = work.get("primary_location") or {}
        source = location.get("source") or {}
        if source.get("display_name"):
            venue = source["display_name"]
        identifiers = []
        doi = (work.get("ids") or {}).get("doi") or work.get("doi")
        if doi:
            identifiers.append(make_identifier(IdentifierKind.DOI, doi))
        biblio = work.get("biblio") or {}
        pages = None
        if biblio.get("first_page"):
            pages = str(biblio["first_page"])
            if biblio.get("last_page") and biblio["last_page"] != biblio["first_page"]:
                pages = f"{pages}-{biblio['last_page']}"
        return ResolvedRecord(
            provider=self.name,
            title=work.get("display_name") or work.get("title") or "",
            authors=tuple(authors),
            venue=venue,
            year=work.get("publication_year"),
            pages=pages,
            identifiers=tuple(identifiers),
            provenance_query=query,
        )

    def search_title(self, title: str) -> SearchOutcome:
        results, cause = self._get({"search": title, "per-page": 5})
        if cause is not None:
            return SearchOutcome(cause=cause)
        query = f"title:{normalize_title(title)}"
        return SearchOutcome(
            records=tuple(self._record(w, query) for w in results)
        )

    def search_author_year(self, surname: str, year: int) -> SearchOutcome:
        results, cause = self._get(
            {
                "filter": f"raw_author_name.search:{surname},publication_year:{year}",
                "per-page": 10,
            }
        )
        if cause is not None:
            return SearchOutcome(cause=cause)
        query = f"author:{surname.lower()}:{year}"
        return SearchOutcome(
            records=tuple(self._record(w, query) for w in results)
        )


class LookupCache:
    """Append-only JSONL cache of Found/NotFound outcomes and search results.

    Unavailable outcomes are never written: an outage is a statement about
    the moment, not about the work, and must not poison later runs. On read,
    the newest entry per key wins and entries older than the TTL are
    ignored.
    """

    def __init__(self, path: str | Path, ttl_seconds: float = DEFAULT_CACHE_TTL_SECONDS):
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.path = Path(path)
        self.ttl_seconds = ttl_seconds
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[float, dict]] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    key = row["key"]
                    stored_at = float(row["stored_at"])
                    payload = row["payload"]
                except (ValueError, KeyError, TypeError):
                    continue
                self._entries[key] = (stored_at, payload)

    def get(self, key: str, now: float | None = None) -> dict | None:
        now = time.time() if now is None else now
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            stored_at, payload = hit
            if now - stored_at > self.ttl_seconds:
                return None
            return payload

    def put(self, key: str, payload: dict, now: float | None = None) -> None:
        now = time.time() if now is None else now
        row = json.dumps(
            {"key": key, "stored_at": now, "payload": payload}, ensure_ascii=False
        )
        with self._lock:
            self._entries[key] = (now, payload)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(row + "\n")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _outcome_payload(outcome: LookupOutcome) -> dict:
    return {
        "kind": "lookup",
        "status": outcome.status.value,
        "record": record_to_dict(outcome.record) if outcome.record else None,
    }


def _payload_outcome(payload: dict) -> LookupOutcome:
    status = LookupStatus(payload["status"])
    record = record_from_dict(payload["record"]) if payload.get("record") else None
    return LookupOutcome(status=status, record=record)


def _search_payload(outcome: SearchOutcome) -> dict:
    return {"kind": "search", "records": [record_to_dict(r) for r in outcome.records]}


def _payload_search(payload: dict) -> SearchOutcome:
    return SearchOutcome(
        records=tuple(record_from_dict(r) for r in payload.get("records", ()))
    )


class Resolver:
    """Routes lookups to providers with rate limiting and caching.

    Providers are consulted in list order; the first enabled provider that
    implements an operation owns it. Thread-safe: one instance may serve a
    whole worker pool.
    """

    def __init__(
        self,
        providers: list | tuple,
        thresholds: MatchThresholds | None = None,
        cache: LookupCache | None = None,
        max_rate_wait: float | None = None,
    ):
        self._providers = list(providers)
        self.thresholds = thresholds or MatchThresholds()
        self.cache = cache
        self.max_rate_wait = max_rate_wait
        self._buckets: dict[int, TokenBucket] = {}
        for provider in self._providers:
            rate = getattr(provider, "config", None)
            rate = rate.rate_limit if rate else 0.0
            if rate and rate > 0:
                self._buckets[id(provider)] = TokenBucket(rate=rate, capacity=1.0)
        self._ops_lock = threading.Lock()
        self._network_ops = 0

    @property
    def network_ops(self) -> int:
        with self._ops_lock:
            return self._network_ops

    def _count_op(self) -> None:
        with self._ops_lock:
            self._network_ops += 1

    def _provider_for(self, op: str):
        for provider in self._providers:
            config = getattr(provider, "config", None)
            if config is not None and not config.enabled:
                continue
            if hasattr(provider, op):
                return provider
        return None

    def _acquire(self, provider) -> bool:
        bucket = self._buckets.get(id(provider))
        if bucket is None:
            return True
        return bucket.acquire(timeout=self.max_rate_wait)

    def _cached_lookup(self, key: str, op: str, value) -> LookupOutcome:
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                return _payload_outcome(payload)
        provider = self._provider_for(op)
        if provider is None:
            return LookupOutcome.unavailable("no_provider")
        if not self._acquire(provider):
            return LookupOutcome.unavailable("rate_limited")
        self._count_op()
        outcome: LookupOutcome = getattr(provider, op)(value)
        if outcome.status is not LookupStatus.UNAVAILABLE and self.cache is not None:
            self.cache.put(key, _outcome_payload(outcome))
        return outcome

    def lookup_doi(self, doi: str) -> LookupOutcome:
        return self._cached_lookup(f"doi:{doi.lower()}", "lookup_doi", doi)

    def lookup_arxiv(self, arxiv_id: str) -> LookupOutcome:
        return self._cached_lookup(
            f"arxiv:{arxiv_id.lower()}", "lookup_arxiv", arxiv_id
        )

    def _cached_search(self, key: str, op: str, *args) -> SearchOutcome:
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                return _payload_search(payload)
        provider = self._provider_for(op)
        if provider is None:
            return SearchOutcome(cause="no_provider")
        if not self._acquire(provider):
            return SearchOutcome(cause="rate_limited")
        self._count_op()
        outcome: SearchOutcome = getattr(provider, op)(*args)
        if not outcome.failed and self.cache is not None:
            self.cache.put(key, _search_payload(outcome))
        return outcome

    def search_title(self, title: str) -> SearchOutcome:
        key = f"title:{normalize_title(title)}"
        return self._cached_search(key, "search_title", title)

    def search_author_year(self, surname: str, year: int) -> SearchOutcome:
        key = f"author:{surname.lower()}:{year}"
        return self._cached_search(key, "search_author_year", surname, year)

    def resolve_citation(self, citation: ParsedCitation) -> ResolutionBundle:
        """Run the lookup ladder for one citation.

        Identifiers first; a Found record that agrees on author, title, and
        year short-circuits the searches. Otherwise title search, then
        author-year search (skipped when the citation has no usable author
        surname or no year).
        """
        id_outcomes: list[tuple[str, LookupOutcome]] = []
        short = False

        for ident in citation.identifiers:
            if ident.kind is IdentifierKind.URL:
                continue
            check = check_identifier(ident)
            if check.syntax is not IdentifierSyntax.VALID or check.normalized is None:
                continue
            if ident.kind is IdentifierKind.DOI:
                outcome = self.lookup_doi(check.normalized)
            else:
                outcome = self.lookup_arxiv(check.normalized)
            id_outcomes.append((f"{ident.kind.value}:{check.normalized}", outcome))
            if outcome.status is LookupStatus.FOUND and outcome.record is not None:
                profile = profile_match(citation, outcome.record, self.thresholds)
                if profile.core_all_match():
                    short = True
                    break

        title_search = None
        author_search = None
        if not short:
            if citation.title.strip():
                title_search = self.search_title(citation.title)
                for record in title_search.records:
                    profile = profile_match(citation, record, self.thresholds)
                    if profile.core_all_match():
                        short = True
                        break
            if not short:
                usable = [
                    a
                    for a in citation.authors
                    if not a.is_placeholder and a.surname
                ]
                if usable and citation.year is not None:
                    author_search = self.search_author_year(
                        usable[0].surname, citation.year
                    )

        return ResolutionBundle(
            citation_key=citation.source_key,
            identifier_outcomes=tuple(id_outcomes),
            title_search=title_search,
            author_search=author_search,
            short_circuit=short,
        )
