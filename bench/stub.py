"""Loopback HTTP stub of the Crossref, arXiv and OpenAlex APIs.

It serves the response shapes citeaudit's clients parse, from a generated
universe (see generate.py):

    GET /crossref/works/{doi}                        Crossref work or 404
    GET /arxiv/api/query?id_list=a[,b...]            arXiv Atom feed
    GET /openalex/works?search=<title>               OpenAlex results page
    GET /openalex/works?filter=raw_author_name.search:<surname>,publication_year:<year>

Every request waits a fixed latency before the reply. Keys in the "down" set
fail with 503 on every endpoint that could serve them; keys in the "flaky"
set fail once per reset (429 with Retry-After, or 503), then succeed.
Connections are HTTP/1.1 keep-alive, so connection set-up does not dominate.
"""
from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit
from xml.sax.saxutils import escape

from generate import Record, Universe, normalize_title

ENDPOINTS = ("crossref", "arxiv", "openalex")


class StubState:
    """Universe, outage sets and request counters shared by handler threads."""

    def __init__(self, document: dict, latency_s: float):
        self.universe = Universe(
            [Record(rid, **d) for rid, d in enumerate(document["records"])]
        )
        down = document.get("down", {})
        self.down_keys = {f"doi:{v}" for v in down.get("doi", ())}
        self.down_keys |= {f"arxiv:{v}" for v in down.get("arxiv", ())}
        self.down_keys |= {f"title:{v}" for v in down.get("title", ())}
        self.down_keys |= {f"author:{s}:{y}" for s, y in down.get("author", ())}
        self.flaky_keys = frozenset(document.get("flaky", ()))
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = {name: 0 for name in ENDPOINTS}
            self.outage_requests = 0
            self._flaky_seen: set[str] = set()
            self._flaky_count = 0

    def counters(self) -> dict:
        with self._lock:
            total = sum(self.requests.values())
            return {
                "requests": total,
                "by_endpoint": dict(self.requests),
                "outage_requests": self.outage_requests,
                "non_outage_requests": total - self.outage_requests,
            }

    def admit(self, endpoint: str, keys: list[str]) -> int | None:
        """Count one request for these keys; return a failure status or None."""
        with self._lock:
            self.requests[endpoint] += 1
            if any(k in self.down_keys for k in keys):
                self.outage_requests += 1
                return 503
            flaky = [k for k in keys if k in self.flaky_keys]
            if flaky:
                self.outage_requests += 1
                fresh = [k for k in flaky if k not in self._flaky_seen]
                if fresh:
                    self._flaky_seen.update(fresh)
                    self._flaky_count += 1
                    # Alternate the two throttling answers real APIs give.
                    return 429 if self._flaky_count % 2 else 503
        return None


def _crossref_message(rec: Record) -> dict:
    first, last = rec.pages.split("-")
    return {
        "DOI": rec.doi,
        "title": [rec.title],
        "container-title": [rec.venue],
        "author": [
            {"given": a.rsplit(" ", 1)[0], "family": a.rsplit(" ", 1)[1]}
            for a in rec.authors
        ],
        "issued": {"date-parts": [[rec.year, 1, 1]]},
        "page": f"{first}-{last}",
    }


def _openalex_work(rec: Record) -> dict:
    first, last = rec.pages.split("-")
    return {
        "id": f"https://openalex.org/W{1000000 + rec.rid}",
        "doi": f"https://doi.org/{rec.doi}",
        "display_name": rec.title,
        "publication_year": rec.year,
        "ids": {"doi": f"https://doi.org/{rec.doi}"},
        "authorships": [{"author": {"display_name": a}} for a in rec.authors],
        "primary_location": {"source": {"display_name": rec.venue}},
        "biblio": {"first_page": first, "last_page": last},
    }


def _atom_feed(records: list[Record]) -> str:
    entries = []
    for rec in records:
        authors = "".join(
            f"<author><name>{escape(a)}</name></author>" for a in rec.authors
        )
        entries.append(
            "<entry>"
            f"<id>http://arxiv.org/abs/{rec.arxiv}v1</id>"
            f"<published>{rec.year}-01-15T00:00:00Z</published>"
            f"<title>{escape(rec.title)}</title>"
            f"{authors}"
            "</entry>"
        )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<feed xmlns="http://www.w3.org/2005/Atom">'
        "<title>ArXiv Query</title>" + "".join(entries) + "</feed>"
    )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def setup(self) -> None:
        super().setup()
        # Header and body go out in separate writes; without this, Nagle's
        # algorithm and delayed ACKs add tens of milliseconds per request.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, body: bytes, ctype: str, headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json")

    def _fail(self, status: int) -> None:
        headers = {"Retry-After": "1"} if status == 429 else None
        self._send(status, b'{"status": "error"}', "application/json", headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib hook name
        state = self.server.state
        time.sleep(state.latency_s)
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        parts = url.path.strip("/").split("/")
        endpoint = parts[0] if parts else ""
        if endpoint == "crossref" and len(parts) == 3 and parts[1] == "works":
            self._crossref(state, unquote(parts[2]))
        elif endpoint == "arxiv":
            self._arxiv(state, query.get("id_list", [""])[0])
        elif endpoint == "openalex" and parts[1:] == ["works"]:
            self._openalex(state, query)
        else:
            self._send(404, b"", "text/plain")

    def _crossref(self, state: StubState, doi: str) -> None:
        key = f"doi:{doi.lower()}"
        failure = state.admit("crossref", [key])
        if failure:
            return self._fail(failure)
        rec = state.universe.by_doi.get(doi.lower())
        if rec is None:
            return self._json(404, {"status": "error", "message": "Resource not found."})
        self._json(200, {"status": "ok", "message": _crossref_message(rec)})

    def _arxiv(self, state: StubState, id_list: str) -> None:
        ids = [i.strip().lower() for i in id_list.split(",") if i.strip()]
        failure = state.admit("arxiv", [f"arxiv:{i}" for i in ids])
        if failure:
            return self._fail(failure)
        found = [state.universe.by_arxiv[i] for i in ids if i in state.universe.by_arxiv]
        self._send(200, _atom_feed(found).encode(), "application/atom+xml")

    def _openalex(self, state: StubState, query: dict) -> None:
        if "search" in query:
            title = query["search"][0]
            key = f"title:{normalize_title(title)}"
        else:
            filters = dict(
                f.split(":", 1) for f in query.get("filter", [""])[0].split(",") if ":" in f
            )
            surname = filters.get("raw_author_name.search", "").lower()
            year = int(filters.get("publication_year", "0") or 0)
            key = f"author:{surname}:{year}"
        failure = state.admit("openalex", [key])
        if failure:
            return self._fail(failure)
        if "search" in query:
            records = state.universe.search_title(title)
        else:
            records = state.universe.search_author_year(surname, year)
        results = [_openalex_work(r) for r in records]
        self._json(200, {"meta": {"count": len(results)}, "results": results})


class StubServer(ThreadingHTTPServer):
    """Threaded loopback server; one handler thread per keep-alive connection."""

    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        # A client killed mid-request resets its connection; that is not a stub fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def __init__(self, state: StubState):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.state = state
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def endpoints(self) -> dict[str, str]:
        """Base endpoint per provider, as citeaudit's [provider.*] config takes them."""
        return {
            "crossref": f"{self.base_url}/crossref",
            "arxiv": f"{self.base_url}/arxiv/api/query",
            "openalex": f"{self.base_url}/openalex",
        }

    def __enter__(self) -> "StubServer":
        self._thread = threading.Thread(target=self.serve_forever, name="stub", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
