"""Resolution of claimed citations against bibliographic providers.

Every sub-lookup returns a three-way outcome: Found, NotFound, or
Unavailable(cause). The distinction is load-bearing: NotFound is evidence
about the citation, Unavailable is evidence about the network, and the two
must never be conflated or a provider outage would look like fabrication.
"""
from __future__ import annotations

import json
import math
import queue
import re
import threading
import time
from collections.abc import Generator, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import quote

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor
    from xml.etree import ElementTree

    from .transport import HttpSession, Reply

from .identifiers import make_identifier
from .matching import FieldMatchProfile, MatchThresholds, normalize_title, profile_match
from .model import (
    AuthorName,
    IdentifierKind,
    ParsedCitation,
    ResolvedRecord,
    normalize_name,
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

    def __post_init__(self) -> None:
        # threading.TIMEOUT_MAX is the longest wait socket.settimeout and
        # time.sleep accept; a longer one raises OverflowError mid-run. A
        # token bucket waits up to 1/rate_limit seconds for a token.
        if not (math.isfinite(self.rate_limit) and self.rate_limit >= 0):
            raise ValueError("rate_limit must be a finite number, not negative")
        if 0 < self.rate_limit < 1 / threading.TIMEOUT_MAX:
            raise ValueError(
                f"rate_limit must be 0 or at least 1/{threading.TIMEOUT_MAX:.0f} requests/s"
            )
        if not (math.isfinite(self.timeout) and 0 < self.timeout <= threading.TIMEOUT_MAX):
            raise ValueError(
                f"timeout must be a finite positive number, at most {threading.TIMEOUT_MAX:.0f} s"
            )


class LookupStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class LookupOutcome:
    """Result of one lookup or search. cause is set when it failed
    (Unavailable); otherwise records holds what it found, and no records
    means it ran and found nothing (NotFound)."""

    records: tuple[ResolvedRecord, ...] = ()
    cause: str | None = None

    @classmethod
    def found(cls, record: ResolvedRecord) -> "LookupOutcome":
        return cls(records=(record,))

    @classmethod
    def not_found(cls) -> "LookupOutcome":
        return cls()

    @classmethod
    def unavailable(cls, cause: str) -> "LookupOutcome":
        return cls(cause=cause)

    @property
    def failed(self) -> bool:
        return self.cause is not None

    @property
    def status(self) -> LookupStatus:
        if self.failed:
            return LookupStatus.UNAVAILABLE
        return LookupStatus.FOUND if self.records else LookupStatus.NOT_FOUND

    @property
    def record(self) -> ResolvedRecord | None:
        """The first record found, if any."""
        return self.records[0] if self.records else None


@dataclass(frozen=True)
class ResolutionBundle:
    """Everything the resolver learned about one citation, with the match
    profile of each record it holds, computed under ``thresholds``."""

    citation_key: str
    identifier_outcomes: tuple[tuple[str, LookupOutcome], ...] = ()
    title_search: LookupOutcome | None = None
    author_search: LookupOutcome | None = None
    short_circuit: bool = False
    identifier_profiles: tuple[tuple[str, ResolvedRecord, FieldMatchProfile], ...] = ()
    search_profiles: tuple[tuple[ResolvedRecord, FieldMatchProfile], ...] = ()
    thresholds: MatchThresholds | None = None

    def attempts(self) -> list[tuple[str, bool, str | None]]:
        """(label, was_unavailable, cause) per sub-lookup actually tried."""
        searches = (("title_search", self.title_search), ("author_search", self.author_search))
        return [
            (label, outcome.failed, outcome.cause)
            for label, outcome in (*self.identifier_outcomes, *searches)
            if outcome is not None
        ]


def _decode_author(raw) -> AuthorName:
    if isinstance(raw, str):
        return normalize_name(raw)
    raw = _typed(raw, dict)
    given_tokens = _typed(raw.get("given_tokens"), list, [])
    return AuthorName(
        raw=_typed(raw.get("raw"), str),
        surname=_typed(raw.get("surname"), str),
        given_tokens=tuple(_typed(token, str) for token in given_tokens),
        is_placeholder=_typed(raw.get("is_placeholder"), bool, False),
    )


def _decode_record(d, provider_name: str) -> ResolvedRecord:
    d = _typed(d, dict)
    identifiers = []
    for ident in _typed(d.get("identifiers"), list, []):
        ident = _typed(ident, dict)
        identifiers.append(
            make_identifier(IdentifierKind(ident["kind"]), _typed(ident["value"], str))
        )
    return ResolvedRecord(
        provider=_typed(d.get("provider"), str, provider_name),
        title=_typed(d.get("title"), str, ""),
        authors=tuple(_decode_author(a) for a in _typed(d.get("authors"), list, [])),
        venue=_typed(d.get("venue"), str, ""),
        year=_typed(d.get("year"), int, None),
        pages=_typed(d.get("pages"), str, None),
        identifiers=tuple(identifiers),
        provenance_query=_typed(d.get("provenance_query"), str, ""),
    )


# Fixture entries and cache payloads are one format of stored outcome:
# {"records": [...]} for a lookup or search that ran (an empty list is
# NotFound) and {"status": "unavailable", "cause"} for an outage. Also read:
# {"status": "not_found"}, and one found record as {"record": ...}, the form
# older cache rows and most fixture files hold; "status": "found" may go
# with either found form. A record without "provider" is credited to
# provider_name. An entry of any other shape is Unavailable("bad_response"):
# no answer, so no evidence.
def _decode(entry, provider_name: str) -> LookupOutcome:
    try:
        entry = _typed(entry, dict)
        status = entry.get("status", "found")
        if status == "found":
            records = _typed(entry["records"], list) if "records" in entry else [entry["record"]]
            return LookupOutcome(tuple(_decode_record(r, provider_name) for r in records))
        if status == "not_found":
            return LookupOutcome.not_found()
        if status == "unavailable":
            return LookupOutcome.unavailable(_typed(entry.get("cause"), str, "offline"))
    except (KeyError, ValueError):  # an entry that does not parse, or _BadPayload
        pass
    return LookupOutcome.unavailable("bad_response")


def _encode(outcome: LookupOutcome) -> dict:
    return {"records": [record_to_dict(r) for r in outcome.records]}


# The key of each op's outcome in a fixture file. A cache key adds the
# source that answered (_cache_key).
def _doi_key(doi: str) -> str:
    return f"doi:{doi.lower()}"


def _arxiv_key(arxiv_id: str) -> str:
    return f"arxiv:{arxiv_id.lower()}"


def _title_key(title: str) -> str:
    return f"title:{normalize_title(title)}"


def _author_key(surname: str, year: int) -> str:
    return f"author:{surname.lower()}:{year}"


# Each Resolver op's fixture key.
_OPS = {
    "lookup_doi": _doi_key,
    "lookup_arxiv": _arxiv_key,
    "search_title": _title_key,
    "search_author_year": _author_key,
}


def _cache_key(provider, op_key: str) -> str:
    """The cache key of provider's answer under op_key. It names the provider
    and its endpoint, so a row answers only the source that wrote it."""
    config = provider.config
    return json.dumps([config.name, config.base_endpoint, op_key], ensure_ascii=False)


class FixtureProvider:
    """Offline provider backed by a JSON file of canned outcomes.

    Each entry, lookup or search alike, is one stored outcome in the format
    _decode reads; an entry of another shape is Unavailable("bad_response").
    closed_world=True means the fixture is the whole universe: a key that
    is not listed resolves to NotFound. With closed_world=False an unlisted
    key is Unavailable("offline"), because the fixture only mirrors a slice
    of the real sources.
    """

    def __init__(self, source: str | Path | dict, name: str = "fixture"):
        label = "fixture" if isinstance(source, dict) else f"fixture file {source}"
        try:
            data = source
            if not isinstance(source, dict):
                data = json.loads(Path(source).read_text(encoding="utf-8"))
            data = _typed(data, dict)
            self.closed_world: bool = _typed(data.get("closed_world"), bool, False)
            self._outcomes: dict = dict(_typed(data.get("outcomes"), dict, {}))
        except ValueError as exc:  # not UTF-8, not JSON, or _BadPayload
            raise ValueError(f"{label}: {exc}") from exc
        self.name = name

    def _read(self, key: str) -> LookupOutcome:
        """The entry under key, decoded; an unlisted key reads as NotFound
        in a closed world and as Unavailable("offline") otherwise."""
        entry = self._outcomes.get(key)
        if entry is not None:
            return _decode(entry, self.name)
        if self.closed_world:
            return LookupOutcome.not_found()
        return LookupOutcome.unavailable("offline")

    def lookup_doi(self, doi: str) -> LookupOutcome:
        return self._read(_doi_key(doi))

    def lookup_arxiv(self, arxiv_id: str) -> LookupOutcome:
        return self._read(_arxiv_key(arxiv_id))

    def search_title(self, title: str) -> LookupOutcome:
        return self._read(_title_key(title))

    def search_author_year(self, surname: str, year: int) -> LookupOutcome:
        return self._read(_author_key(surname, year))


def _new_session() -> HttpSession:
    # The transport, with http.client and ssl, is imported when a client is
    # built, not with this module: offline runs never build one.
    from .transport import HttpSession

    return HttpSession()


class _BadPayload(ValueError):
    """A reply that parsed but does not have the shape the provider documents."""


_REQUIRED = object()


def _typed(value, kind, default=_REQUIRED):
    """value when it is an instance of kind; default when value is None and a
    default is given. Anything else is a malformed reply. bool passes only for
    bool, since JSON true is not a year or a page."""
    if value is None and default is not _REQUIRED:
        return default
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
        raise _BadPayload(f"expected {kind}, got {type(value).__name__}")
    return value


def _send(
    session: HttpSession, url: str, timeout: float, params: dict | None = None
) -> Reply | str:
    """session.get's reply, or the Unavailable cause when the request itself
    fails: "timeout" for a timeout, "connection" for any other failure
    (refused, reset, truncated, a bad URL, a body that does not decode, a
    redirect loop)."""
    from .transport import TRANSPORT_ERRORS

    try:
        return session.get(url, params=params, timeout=timeout)
    except TimeoutError:
        return "timeout"
    except TRANSPORT_ERRORS:
        return "connection"


class _HttpClient:
    """A provider reached over HTTP through one session."""

    def __init__(self, config: ProviderConfig, session: HttpSession | None = None):
        self.name = config.name
        self.config = config
        self._session = session or _new_session()

    def close(self) -> None:
        """Close the connections the session keeps open; the next request
        opens a new one."""
        self._session.close()

    def _get(self, url: str, params: dict | None = None) -> Reply | str:
        """The 200 reply, or the Unavailable cause: _send's "timeout" or
        "connection", "rate_limited" for a 429, "http_5xx", or
        "http_<status>" for any other status."""
        resp = _send(self._session, url, self.config.timeout, params)
        if isinstance(resp, str) or resp.status_code == 200:
            return resp
        if resp.status_code == 429:
            return "rate_limited"
        if resp.status_code >= 500:
            return "http_5xx"
        return f"http_{resp.status_code}"


class CrossrefClient(_HttpClient):
    """DOI resolution against a Crossref-style works endpoint. A 404 is
    NotFound: the one HTTP status that is evidence about the work."""

    def lookup_doi(self, doi: str) -> LookupOutcome:
        resp = self._get(f"{self.config.base_endpoint.rstrip('/')}/works/{quote(doi, safe='')}")
        if resp == "http_404":
            return LookupOutcome.not_found()
        if isinstance(resp, str):
            return LookupOutcome.unavailable(resp)
        try:
            return LookupOutcome.found(self._record(resp.json(), doi))
        except ValueError:  # undecodable JSON, or _BadPayload
            return LookupOutcome.unavailable("bad_response")

    def _record(self, body, doi: str) -> ResolvedRecord:
        message = _typed(_typed(body, dict).get("message"), dict)
        titles = _typed(message.get("title"), list, [])
        container = _typed(message.get("container-title"), list, [])
        authors = []
        for a in _typed(message.get("author"), list, []):
            a = _typed(a, dict)
            given = _typed(a.get("given"), str, "")
            family = _typed(a.get("family"), str, "")
            text = f"{given} {family}".strip()
            if text:
                authors.append(normalize_name(text))
        issued = _typed(message.get("issued"), dict, {})
        parts = _typed(issued.get("date-parts"), list, [])
        first = _typed(parts[0] if parts else None, list, [])
        year = _typed(first[0] if first else None, int, None)
        return ResolvedRecord(
            provider=self.name,
            title=_typed(titles[0] if titles else None, str, ""),
            authors=tuple(authors),
            venue=_typed(container[0] if container else None, str, ""),
            year=year,
            pages=_typed(message.get("page"), str, None),
            identifiers=(
                make_identifier(IdentifierKind.DOI, _typed(message.get("DOI"), str, doi)),
            ),
            provenance_query=_doi_key(doi),
        )


_ATOM_NS = {"atom": "http://www.w3.org/2005/Atom"}


_ARXIV_VERSION_RE = re.compile(r"v\d+$")


def _arxiv_match_key(arxiv_id: str) -> str:
    """The form in which a requested id and an Atom entry's id are compared:
    lowercased, without a version suffix."""
    return _ARXIV_VERSION_RE.sub("", arxiv_id.lower())


class ArxivClient(_HttpClient):
    """Preprint metadata via an arXiv-style Atom query endpoint."""

    def lookup_arxiv(self, arxiv_id: str) -> LookupOutcome:
        return self.lookup_arxiv_ids([arxiv_id])[arxiv_id]

    def lookup_arxiv_ids(self, arxiv_ids: Sequence[str]) -> dict[str, LookupOutcome]:
        """Look up several ids in one request (``id_list=a,b,c``).

        Each Atom entry is matched to a requested id through its ``<id>``
        URL. A requested id with no entry is NotFound. A failed request, or a
        reply whose entries cannot all be matched, makes every id Unavailable,
        since such a reply says nothing about any one id. A lone id takes the
        first entry, whatever its ``<id>``, and an error pseudo-entry for it is
        NotFound: the API reports a malformed id that way.
        """
        ids = list(arxiv_ids)

        def unavailable(cause: str) -> dict[str, LookupOutcome]:
            return {i: LookupOutcome.unavailable(cause) for i in ids}

        resp = self._get(
            self.config.base_endpoint,
            {"id_list": ",".join(ids), "max_results": len(ids)},
        )
        if isinstance(resp, str):
            return unavailable(resp)
        from xml.etree import ElementTree

        try:
            entries = ElementTree.fromstring(resp.text).findall("atom:entry", _ATOM_NS)
        except ElementTree.ParseError:
            return unavailable("bad_response")
        if len(ids) == 1:
            return {ids[0]: self._entry_outcome(entries[0] if entries else None, ids[0])}
        wanted = {_arxiv_match_key(i) for i in ids}
        by_key: dict[str, ElementTree.Element] = {}
        for entry in entries:
            if _is_error_entry(entry):
                return unavailable("bad_response")
            entry_id = entry.findtext("atom:id", default="", namespaces=_ATOM_NS)
            _, sep, tail = entry_id.partition("/abs/")
            key = _arxiv_match_key(tail)
            if not sep or key not in wanted:
                return unavailable("bad_response")
            by_key.setdefault(key, entry)
        return {i: self._entry_outcome(by_key.get(_arxiv_match_key(i)), i) for i in ids}

    def _entry_outcome(
        self, entry: ElementTree.Element | None, arxiv_id: str
    ) -> LookupOutcome:
        if entry is None or _is_error_entry(entry):
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
                title=_entry_title(entry),
                authors=authors,
                venue="arXiv",
                year=year,
                identifiers=(make_identifier(IdentifierKind.ARXIV, arxiv_id),),
                provenance_query=_arxiv_key(arxiv_id),
            )
        )


def _entry_title(entry: ElementTree.Element) -> str:
    return " ".join(entry.findtext("atom:title", default="", namespaces=_ATOM_NS).split())


def _is_error_entry(entry: ElementTree.Element) -> bool:
    # The API reports bad ids as a pseudo-entry under api/errors.
    entry_id = entry.findtext("atom:id", default="", namespaces=_ATOM_NS)
    return "api/errors" in entry_id or _entry_title(entry).lower() == "error"


class OpenAlexClient(_HttpClient):
    """Title and author-year search against an OpenAlex-style works index."""

    def _search(self, params: dict, query: str) -> LookupOutcome:
        resp = self._get(f"{self.config.base_endpoint.rstrip('/')}/works", params)
        if isinstance(resp, str):
            return LookupOutcome.unavailable(resp)
        try:
            results = _typed(_typed(resp.json(), dict).get("results"), list)
            return LookupOutcome(tuple(self._record(w, query) for w in results))
        except ValueError:  # undecodable JSON, or _BadPayload
            return LookupOutcome.unavailable("bad_response")

    def _record(self, work, query: str) -> ResolvedRecord:
        work = _typed(work, dict)
        authors = []
        for authorship in _typed(work.get("authorships"), list, []):
            author = _typed(_typed(authorship, dict).get("author"), dict, {})
            name = _typed(author.get("display_name"), str, "")
            if name:
                authors.append(normalize_name(name))
        location = _typed(work.get("primary_location"), dict, {})
        source = _typed(location.get("source"), dict, {})
        venue = _typed(source.get("display_name"), str, "")
        identifiers = []
        ids = _typed(work.get("ids"), dict, {})
        doi = _typed(ids.get("doi"), str, "") or _typed(work.get("doi"), str, "")
        if doi:
            identifiers.append(make_identifier(IdentifierKind.DOI, doi))
        biblio = _typed(work.get("biblio"), dict, {})
        first_page = _typed(biblio.get("first_page"), (str, int), None)
        last_page = _typed(biblio.get("last_page"), (str, int), None)
        pages = None
        if first_page:
            pages = str(first_page)
            if last_page and last_page != first_page:
                pages = f"{pages}-{last_page}"
        title = _typed(work.get("display_name"), str, "") or _typed(
            work.get("title"), str, ""
        )
        return ResolvedRecord(
            provider=self.name,
            title=title,
            authors=tuple(authors),
            venue=venue,
            year=_typed(work.get("publication_year"), int, None),
            pages=pages,
            identifiers=tuple(identifiers),
            provenance_query=query,
        )

    def search_title(self, title: str) -> LookupOutcome:
        return self._search({"search": title, "per-page": 5}, _title_key(title))

    def search_author_year(self, surname: str, year: int) -> LookupOutcome:
        return self._search(
            {
                "filter": f"raw_author_name.search:{surname},publication_year:{year}",
                "per-page": 10,
            },
            _author_key(surname, year),
        )


class LookupCache:
    """Append-only JSONL cache of Found and NotFound outcomes.

    Unavailable outcomes are never written: an outage is a statement about
    the moment, not about the work, and must not poison later runs. On read,
    the newest entry per key wins and entries older than
    DEFAULT_CACHE_TTL_SECONDS are ignored; so is a row that is not
    {"key": str, "stored_at": finite number, "payload": object}, and one
    stamped later than the file was read, which would never expire. The
    Resolver writes payloads in the fixture entry format and reads them back
    through the decoder FixtureProvider uses, so a row in any shape that
    decoder reads is a hit. Without a path the cache lives in memory only,
    for the life of the object.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = None if path is None else Path(path)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[float, dict]] = {}
        self._load()

    def _load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        loaded_at = time.time()
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = _typed(json.loads(line), dict)
                    key = _typed(row.get("key"), str)
                    stored_at = float(_typed(row.get("stored_at"), (int, float)))
                    payload = _typed(row.get("payload"), dict)
                except (ValueError, OverflowError):  # not JSON, _BadPayload, or a huge int
                    continue
                if math.isfinite(stored_at) and stored_at <= loaded_at:
                    self._entries[key] = (stored_at, payload)

    def get(self, key: str, now: float | None = None) -> dict | None:
        now = time.time() if now is None else now
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            stored_at, payload = hit
            if now - stored_at > DEFAULT_CACHE_TTL_SECONDS:
                return None
            return payload

    def put(self, key: str, payload: dict, now: float | None = None) -> None:
        now = time.time() if now is None else now
        with self._lock:
            self._entries[key] = (now, payload)
            if self.path is None:
                return
            row = json.dumps(
                {"key": key, "stored_at": now, "payload": payload}, ensure_ascii=False
            )
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(row + "\n")


# Most arXiv ids one batched arXiv request asks for.
ARXIV_BATCH_SIZE = 100


# arXiv registers a DataCite DOI for every paper, 10.48550/arXiv.<id>
# (lowercased here, as normalized DOIs are). Crossref does not hold those
# DOIs, so its 404 for one is no evidence.
_ARXIV_DOI_PREFIX = "10.48550/arxiv."


def _lookup_ids(citation: ParsedCitation):
    """(kind, normalized value) of each DOI and arXiv id worth looking up,
    each once. An arXiv DOI is looked up as its arXiv id."""
    seen = set()
    for ident in citation.identifiers:
        if ident.kind is IdentifierKind.URL or not ident.syntactically_valid:
            continue
        kind, value = ident.kind, ident.normalized
        if kind is IdentifierKind.DOI and value.startswith(_ARXIV_DOI_PREFIX):
            arxiv = make_identifier(IdentifierKind.ARXIV, value[len(_ARXIV_DOI_PREFIX) :])
            if arxiv.syntactically_valid:
                kind, value = arxiv.kind, arxiv.normalized
        if (kind, value) not in seen:
            seen.add((kind, value))
            yield kind, value


class Resolver:
    """Routes lookups to providers with rate limiting and caching.

    Providers are consulted in list order; the first provider that
    implements an operation owns it. A FixtureProvider owner is read in
    place. A network owner's Found and NotFound outcomes go into the
    cache; without a configured one the resolver keeps an in-memory
    LookupCache, so a key repeated within one run goes to the network once
    either way. resolve_all is the one way in: it sends a key once for all
    the ladders waiting on it.
    """

    def __init__(
        self,
        providers: list | tuple,
        thresholds: MatchThresholds | None = None,
        cache: LookupCache | None = None,
    ):
        self._providers = list(providers)
        self.thresholds = thresholds or MatchThresholds()
        self.cache = cache if cache is not None else LookupCache()
        self._buckets: dict[int, TokenBucket] = {}
        for provider in self._providers:
            if isinstance(provider, FixtureProvider):
                continue
            # A network provider's config names it in every cache key.
            config = getattr(provider, "config", None)
            if not isinstance(config, ProviderConfig):
                raise TypeError(f"provider {provider!r} has no ProviderConfig as .config")
            if config.rate_limit > 0:
                self._buckets[id(provider)] = TokenBucket(rate=config.rate_limit)

    def _provider_for(self, op: str):
        return next((p for p in self._providers if hasattr(p, op)), None)

    def _wait_for_token(self, provider) -> None:
        bucket = self._buckets.get(id(provider))
        if bucket is not None:
            bucket.acquire()

    def _cached(self, key: str, provider) -> LookupOutcome | None:
        """The outcome the cache holds under key, decoded as a fixture entry
        is, or None. The cache never stores Unavailable, so a payload that
        decodes to it (a row that does not parse) is a miss: the key is
        looked up again, and the fresh row wins over the bad one."""
        payload = self.cache.get(key)
        if payload is None:
            return None
        outcome = _decode(payload, provider.config.name)
        return None if outcome.failed else outcome

    def _settle(self, op: str, args: tuple):
        """(owner, cache key, outcome) of owner.op(*args), owner being the
        first provider with op: Unavailable("no_provider") without one, a
        fixture's answer, a network owner's failed arXiv request of this run
        or cached outcome, or None when the key has to be sent."""
        provider = self._provider_for(op)
        if provider is None:
            return None, None, LookupOutcome.unavailable("no_provider")
        if isinstance(provider, FixtureProvider):
            return provider, None, getattr(provider, op)(*args)
        key = _cache_key(provider, _OPS[op](*args))
        return provider, key, self._arxiv_failed.get(key) or self._cached(key, provider)

    def _fetch(self, provider, key: str, op: str, args: tuple):
        """provider.op(*args) on the provider's next token, cached under key
        unless it is Unavailable. A lane job: _settle has already missed."""
        self._wait_for_token(provider)
        outcome = getattr(provider, op)(*args)
        if not outcome.failed:
            self.cache.put(key, _encode(outcome))
        return outcome

    def _pending_arxiv(self, citations) -> tuple[object, dict[str, str]]:
        """The provider that batches arXiv lookups, and the arXiv ids of
        citations that no cache entry settles by cache key, in order of first
        appearance. Without a batching owner, (None, {}): no citation is read."""
        provider = self._provider_for("lookup_arxiv")
        if provider is None or not hasattr(provider, "lookup_arxiv_ids"):
            return None, {}
        pending: dict[str, str] = {}
        for citation in citations:
            for kind, value in _lookup_ids(citation):
                if kind is IdentifierKind.ARXIV:
                    key = _cache_key(provider, _arxiv_key(value))
                    if key not in pending and self._cached(key, provider) is None:
                        pending[key] = value
        return provider, pending

    def _fetch_arxiv(self, provider, ids: list[str]) -> None:
        """Send ids, which no cache entry settles, ARXIV_BATCH_SIZE per
        request, one rate-limit token each, and cache what they settle. A
        batch refused with a 429 is sent once more, whole; one that failed
        otherwise is split in halves. A ladder sends the rest one by one."""
        for start in range(0, len(ids), ARXIV_BATCH_SIZE):
            batch = ids[start : start + ARXIV_BATCH_SIZE]
            unsettled, cause = self._request_arxiv(provider, batch)
            if cause == "rate_limited" and len(batch) > 1:
                # A 429 asks the client to slow down, not to send more
                # requests: the batch goes once more, whole, on its next token.
                unsettled, cause = self._request_arxiv(provider, unsettled)
            self._split_failed(provider, unsettled, cause)

    def _request_arxiv(self, provider, ids: list[str]) -> tuple[list[str], str | None]:
        """Send one batch request and cache what it settles. Returns the ids
        left unsettled and the cause of their failure."""
        self._wait_for_token(provider)
        outcomes = provider.lookup_arxiv_ids(ids)
        unsettled = []
        cause = None
        for arxiv_id in ids:
            outcome = outcomes[arxiv_id]
            key = _cache_key(provider, _arxiv_key(arxiv_id))
            if not outcome.failed:
                self.cache.put(key, _encode(outcome))
                continue
            unsettled.append(arxiv_id)
            cause = outcome.cause
            if len(ids) == 1:
                self._arxiv_failed[key] = outcome
        return unsettled, cause

    def _split_failed(self, provider, failed: list[str], cause: str | None) -> None:
        # The ids of a failed request are sent again in halves, so one
        # failing id cannot take the others down with it. A 429, or two
        # halves that both fail whole (an outage, not one bad id), ends the
        # splitting: the ids left are looked up on the per-id path.
        if len(failed) < 2 or cause == "rate_limited":
            return
        half = (len(failed) + 1) // 2
        results = []
        for part in (failed[:half], failed[half:]):
            unsettled, part_cause = self._request_arxiv(provider, part)
            if part_cause == "rate_limited":
                return
            results.append((part, unsettled, part_cause))
        if all(unsettled == part for part, unsettled, _ in results):
            return
        for _, unsettled, part_cause in results:
            self._split_failed(provider, unsettled, part_cause)

    def _ladder(self, citation: ParsedCitation) -> Generator[tuple, object, ResolutionBundle]:
        """The lookup ladder of one citation. It yields each op it needs as
        (op, args), takes the outcome back, and returns the bundle.

        Identifiers first; a record found by one that agrees on author,
        title, and year short-circuits the searches. Otherwise title search,
        then author-year search (skipped after a full title-search match, or
        when the citation has no usable author surname or no year). Every
        record an outcome holds is profiled, an identifier's as a search's.
        """
        id_outcomes: list[tuple[str, LookupOutcome]] = []
        id_profiles: list[tuple[str, ResolvedRecord, FieldMatchProfile]] = []
        search_profiles: list[tuple[ResolvedRecord, FieldMatchProfile]] = []
        short = False

        def profiles(outcome: LookupOutcome) -> list[tuple[ResolvedRecord, FieldMatchProfile]]:
            return [(r, profile_match(citation, r, self.thresholds)) for r in outcome.records]

        for kind, value in _lookup_ids(citation):
            op = "lookup_doi" if kind is IdentifierKind.DOI else "lookup_arxiv"
            outcome = yield op, (value,)
            label = f"{kind.value}:{value}"
            id_outcomes.append((label, outcome))
            found = profiles(outcome)
            id_profiles += [(label, record, profile) for record, profile in found]
            if any(profile.core_all_match() for _, profile in found):
                short = True
                break

        title_search = None
        author_search = None
        if not short:
            if citation.title.strip():
                title_search = yield "search_title", (citation.title,)
                search_profiles = profiles(title_search)
                short = any(p.core_all_match() for _, p in search_profiles)
            if not short:
                usable = [a for a in citation.authors if not a.is_placeholder and a.surname]
                if usable and citation.year is not None:
                    author_search = yield "search_author_year", (usable[0].surname, citation.year)
                    search_profiles += profiles(author_search)

        return ResolutionBundle(
            citation_key=citation.source_key,
            identifier_outcomes=tuple(id_outcomes),
            title_search=title_search,
            author_search=author_search,
            short_circuit=short,
            identifier_profiles=tuple(id_profiles),
            search_profiles=tuple(search_profiles),
            thresholds=self.thresholds,
        )

    def resolve_citation(self, citation: ParsedCitation) -> ResolutionBundle:
        """Run the lookup ladder for one citation: resolve_all over it alone."""
        (result,) = self.resolve_all([citation], jobs=1)
        if isinstance(result, Exception):
            raise result
        return result

    def resolve_all(
        self, citations: Sequence[ParsedCitation], jobs: int
    ) -> Iterator[ResolutionBundle | Exception]:
        """Resolve a whole bibliography: the resolver's one way to look
        anything up. The calling thread steps every citation's lookup ladder
        and answers in place each op _settle answers. Any other goes, by key,
        to its owner's lane: each network provider's FIFO, served by up to
        ``jobs`` threads, so ``jobs`` is the most requests one provider has
        in flight at once. A lane job only waits for a token, sends and
        caches; it looks nothing up first. A ladder asking for a key already
        queued waits on that request. Of the ladders that waited on a key
        which came back Unavailable, the first takes that outcome and each
        other asks again, so sends its own request, as it would have alone.
        The arXiv lane's first job is one batch of every arXiv id no cache
        entry settles; it only saves requests, so after it, raised or not,
        its ladders ask again.

        Yields, in input order, each citation's bundle or the exception its
        ladder or an op it waited on raised. When the iteration ends, early
        or not, every lane thread has finished and the HTTP clients'
        connections are closed.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        # arXiv ids whose own request failed in this run's batch, by cache
        # key, so they are not sent again that run.
        self._arxiv_failed: dict[str, LookupOutcome] = {}
        ladders = [self._ladder(c) for c in citations]
        results: dict[int, ResolutionBundle | Exception] = {}
        # Each key on a lane, with the (position, op, args) of its ladders.
        waiting: dict[str, list[tuple[int, str, tuple]]] = {}
        lanes: dict[int, ThreadPoolExecutor] = {}
        done: queue.SimpleQueue = queue.SimpleQueue()

        def queue_job(provider, keys, job, *args):
            if id(provider) not in lanes:
                from concurrent.futures import ThreadPoolExecutor

                name = f"citeaudit-{provider.config.name}"
                lanes[id(provider)] = ThreadPoolExecutor(jobs, thread_name_prefix=name)
            future = lanes[id(provider)].submit(job, *args)
            future.add_done_callback(lambda finished: done.put((keys, finished)))
            return future

        def step(i: int, outcome=None, asked: tuple | None = None) -> None:
            """Send outcome to ladder i (or ask again), until it waits or ends."""
            try:
                while True:
                    op, args = asked or ladders[i].send(outcome)
                    provider, key, outcome = self._settle(op, args)
                    if outcome is None:
                        break
                    asked = None
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:  # noqa: BLE001 - reported as that citation's verdict
                results[i] = exc
            else:
                if key not in waiting:
                    waiting[key] = []
                    queue_job(provider, (key,), self._fetch, provider, key, op, args)
                waiting[key].append((i, op, args))

        def finish(keys, future) -> None:
            # The batch only saves requests: after it, its ladders ask again.
            result = None if future is batch else future.exception() or future.result()
            for key in keys:
                for n, (i, op, args) in enumerate(waiting.pop(key, ())):
                    if isinstance(result, Exception):
                        results[i] = result
                    elif result is None or (n and result.failed):
                        step(i, asked=(op, args))
                    else:
                        step(i, result)

        provider, pending = self._pending_arxiv(citations)
        batch = None
        try:
            if pending:
                waiting.update((key, []) for key in pending)
                ids = list(pending.values())
                batch = queue_job(provider, list(pending), self._fetch_arxiv, provider, ids)
            for i in range(len(citations)):
                step(i)
            for i in range(len(citations)):
                while i not in results or not done.empty():
                    finish(*done.get())
                yield results.pop(i)
        finally:
            for lane in lanes.values():
                lane.shutdown(cancel_futures=True)
            for p in self._providers:
                if isinstance(p, _HttpClient):
                    p.close()
