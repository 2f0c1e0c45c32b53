"""Stand-ins for the HTTP session, so the clients run without a network.

A session is any object with ``get(url, params=, timeout=)`` that returns a
reply with ``status_code``, ``text`` and ``json()``, or raises one of
citeaudit.transport.TRANSPORT_ERRORS, as the stdlib transport does; and
that has a ``close()``. ``Resolver.resolve_all`` may run concurrently on
one Resolver; lane threads end with each call, and a client's ``close()``
is called when the last live call on its Resolver ends, never under
another call's request. These fakes hold no connection, so theirs does
nothing."""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from urllib.parse import unquote
from xml.sax.saxutils import escape


class FakeResponse:
    def __init__(self, status_code: int = 200, text: str = ""):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


def json_response(body, status_code: int = 200) -> FakeResponse:
    return FakeResponse(status_code, json.dumps(body))


class ReplySession:
    """Answers every GET with one response, or raises one exception."""

    def __init__(self, reply: FakeResponse | BaseException):
        self.reply = reply

    def close(self):
        pass

    def get(self, url, params=None, timeout=None):
        if isinstance(self.reply, BaseException):
            raise self.reply
        return self.reply


@dataclass(frozen=True)
class Paper:
    title: str
    authors: tuple[str, ...]
    year: int
    venue: str = ""


def atom_entry(entry_id: str, title: str, authors=(), year: int | None = None) -> str:
    names = "".join(f"<author><name>{escape(a)}</name></author>" for a in authors)
    published = f"<published>{year}-03-01T00:00:00Z</published>" if year else ""
    return (
        f"<entry><id>{escape(entry_id)}</id>{published}"
        f"<title>{escape(title)}</title>{names}</entry>"
    )


def atom_feed(*entries: str) -> FakeResponse:
    return FakeResponse(
        200,
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<feed xmlns="http://www.w3.org/2005/Atom"><title>ArXiv Query</title>'
        + "".join(entries)
        + "</feed>",
    )


ERROR_ENTRY = atom_entry("http://arxiv.org/api/errors#incorrect_id_format", "Error")


class FakeArxivSession:
    """An arXiv query endpoint over a table of papers keyed by unversioned id.

    An entry's <id> carries the requested version, or v1 when none was
    asked for, as the live API's does. A request that names any id in
    failing gets failing_status, every time; so does the first request that
    names an id in fail_once.
    """

    def __init__(
        self, papers: dict[str, Paper], failing=(), failing_status: int = 503, fail_once=()
    ):
        self.papers = papers
        self.failing = frozenset(failing)
        self.failing_status = failing_status
        self.fail_once = set(fail_once)
        self.requests: list[dict] = []

    def close(self):
        pass

    def get(self, url, params=None, timeout=None):
        self.requests.append(dict(params))
        ids = params["id_list"].split(",")
        once = self.fail_once.intersection(ids)
        if once or self.failing.intersection(ids):
            self.fail_once -= once
            return FakeResponse(self.failing_status, "")
        entries = []
        for arxiv_id in ids:
            base = re.sub(r"v\d+$", "", arxiv_id.lower())
            paper = self.papers.get(base)
            if paper is not None:
                version = arxiv_id[len(base):] or "v1"
                entries.append(
                    atom_entry(
                        f"http://arxiv.org/abs/{base}{version}",
                        paper.title,
                        paper.authors,
                        paper.year,
                    )
                )
        return atom_feed(*entries)


def _crossref_work(doi: str, paper: Paper) -> dict:
    authors = []
    for name in paper.authors:
        *given, family = name.split()
        authors.append({"given": " ".join(given), "family": family})
    return {
        "title": [paper.title],
        "container-title": [paper.venue],
        "author": authors,
        "issued": {"date-parts": [[paper.year]]},
        "DOI": doi,
    }


def _openalex_work(doi: str, paper: Paper) -> dict:
    return {
        "display_name": paper.title,
        "authorships": [{"author": {"display_name": name}} for name in paper.authors],
        "publication_year": paper.year,
        "ids": {"doi": f"https://doi.org/{doi}"},
        "primary_location": {"source": {"display_name": paper.venue}},
    }


class FakeWorksSession:
    """Crossref's ``/works/<doi>`` and OpenAlex's ``/works`` search over a
    table of papers keyed by lowercase DOI, under any endpoint.

    A DOI not in the table is a 404. A title search (``search``) returns the
    papers with that title, case aside; an author-year search (``filter``)
    the papers of that year with an author of that surname. Any other
    request is a 404. Every request is kept in ``requests`` as (url, params).
    """

    def __init__(self, papers: dict[str, Paper]):
        self.papers = papers
        self.requests: list[tuple[str, dict | None]] = []

    def close(self):
        pass

    def get(self, url, params=None, timeout=None):
        self.requests.append((url, params))
        head, _, doi = url.rpartition("/works/")
        if head:
            doi = unquote(doi).lower()
            if doi not in self.papers:
                return FakeResponse(404, "")
            return json_response({"message": _crossref_work(doi, self.papers[doi])})
        if not url.endswith("/works"):
            return FakeResponse(404, "")
        if "search" in params:
            wanted = params["search"].lower()
            hits = {d: p for d, p in self.papers.items() if p.title.lower() == wanted}
        else:
            terms = dict(term.split(":", 1) for term in params["filter"].split(","))
            surname, year = terms["raw_author_name.search"].lower(), int(terms["publication_year"])
            hits = {
                d: p
                for d, p in self.papers.items()
                if p.year == year and any(a.split()[-1].lower() == surname for a in p.authors)
            }
        return json_response({"results": [_openalex_work(d, p) for d, p in hits.items()]})
