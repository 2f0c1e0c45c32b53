"""The providers against canned replies: reply shapes, fixture entries and
batched arXiv lookups."""
from __future__ import annotations

import http.client
import math
import threading
import zlib

import pytest

from citeaudit.classify import ClassifierConfig
from citeaudit.identifiers import make_identifier
from citeaudit.model import IdentifierKind, VerdictStatus
from citeaudit.resolve import (
    ArxivClient,
    CrossrefClient,
    FixtureProvider,
    LookupOutcome,
    LookupStatus,
    OpenAlexClient,
    ProviderConfig,
    Resolver,
)
from tests.conftest import classify_citation, make_citation
from tests.http_fakes import (
    ERROR_ENTRY,
    FakeArxivSession,
    FakeResponse,
    Paper,
    ReplySession,
    atom_entry,
    atom_feed,
    json_response,
)

FOUND = LookupStatus.FOUND
NOT_FOUND = LookupStatus.NOT_FOUND


def _client(klass, reply):
    config = ProviderConfig(name=klass.__name__.lower(), base_endpoint="http://stub")
    return klass(config, session=ReplySession(reply))


# The errors the stdlib transport's get raises. A timeout is "timeout";
# every other one is "connection".
_REQUEST_ERRORS = [
    (TimeoutError("timed out"), "timeout"),
    (ConnectionRefusedError(), "connection"),
    (http.client.IncompleteRead(b"{", 10), "connection"),  # truncated body
    (zlib.error("invalid stored block lengths"), "connection"),  # gzip body
    (http.client.HTTPException("more than 10 redirects"), "connection"),
    (ValueError("cannot send a GET to 'ftp://stub'"), "connection"),
]


_CROSSREF_OK = {
    "title": ["Deep learning"],
    "container-title": ["Nature"],
    "author": [{"given": "Yann", "family": "LeCun"}],
    "issued": {"date-parts": [[2015, 5, 28]]},
    "page": "436-444",
    "DOI": "10.1038/nature14539",
}


class TestCrossrefShapes:
    def test_well_formed_reply(self):
        client = _client(CrossrefClient, json_response({"message": _CROSSREF_OK}))
        outcome = client.lookup_doi("10.1038/nature14539")
        assert outcome.status is FOUND
        record = outcome.record
        assert (record.title, record.venue, record.year, record.pages) == (
            "Deep learning",
            "Nature",
            2015,
            "436-444",
        )
        assert [a.surname for a in record.authors] == ["lecun"]

    @pytest.mark.parametrize(
        "body",
        [
            [],
            [_CROSSREF_OK],
            {},
            {"message": None},
            {"message": [_CROSSREF_OK]},
            {"message": {**_CROSSREF_OK, "title": "Deep learning"}},
            {"message": {**_CROSSREF_OK, "title": [["Deep learning"]]}},
            {"message": {**_CROSSREF_OK, "container-title": "Nature"}},
            {"message": {**_CROSSREF_OK, "author": "Yann LeCun"}},
            {"message": {**_CROSSREF_OK, "author": [None]}},
            {"message": {**_CROSSREF_OK, "author": [{"family": 7}]}},
            {"message": {**_CROSSREF_OK, "issued": [[2015]]}},
            {"message": {**_CROSSREF_OK, "issued": {"date-parts": [2015]}}},
            {"message": {**_CROSSREF_OK, "issued": {"date-parts": [["2015"]]}}},
            {"message": {**_CROSSREF_OK, "page": 436}},
            {"message": {**_CROSSREF_OK, "DOI": ["10.1038/nature14539"]}},
        ],
    )
    def test_malformed_reply_is_bad_response(self, body):
        client = _client(CrossrefClient, json_response(body))
        assert client.lookup_doi("10.1038/nature14539") == LookupOutcome.unavailable(
            "bad_response"
        )

    def test_undecodable_reply_is_bad_response(self):
        client = _client(CrossrefClient, FakeResponse(200, "<html>"))
        assert client.lookup_doi("10.1/x").cause == "bad_response"

    @pytest.mark.parametrize("error, cause", _REQUEST_ERRORS)
    def test_request_error_is_unavailable(self, error, cause):
        client = _client(CrossrefClient, error)
        assert client.lookup_doi("10.1/x") == LookupOutcome.unavailable(cause)

    def test_malformed_reply_is_no_internal_error(self):
        client = _client(CrossrefClient, json_response({"message": None}))
        citation = make_citation(
            identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),),
        )
        verdict = classify_citation(
            citation, Resolver(providers=[client]), ClassifierConfig()
        )
        assert verdict.status is VerdictStatus.UNVERIFIABLE
        assert verdict.cause == "provider_unavailable"


_WORK_OK = {
    "display_name": "Deep learning",
    "publication_year": 2015,
    "authorships": [{"author": {"display_name": "Yann LeCun"}}],
    "primary_location": {"source": {"display_name": "Nature"}},
    "ids": {"doi": "https://doi.org/10.1038/nature14539"},
    "biblio": {"first_page": "436", "last_page": "444"},
}


class TestOpenAlexShapes:
    def test_well_formed_reply(self):
        client = _client(OpenAlexClient, json_response({"results": [_WORK_OK]}))
        outcome = client.search_title("Deep learning")
        assert not outcome.failed
        (record,) = outcome.records
        assert (record.title, record.venue, record.year, record.pages) == (
            "Deep learning",
            "Nature",
            2015,
            "436-444",
        )
        assert record.provenance_query == "title:deep learning"

    def test_work_with_only_a_title(self):
        client = _client(OpenAlexClient, json_response({"results": [{"title": "Deep learning"}]}))
        (record,) = client.search_title("Deep learning").records
        assert (record.title, record.authors, record.venue, record.year, record.pages) == (
            "Deep learning",
            (),
            "",
            None,
            None,
        )

    @pytest.mark.parametrize(
        "body",
        [
            [],
            [_WORK_OK],
            {},
            {"results": None},
            {"results": {"0": _WORK_OK}},
            {"results": [None]},
            {"results": ["Deep learning"]},
            {"results": [{**_WORK_OK, "publication_year": "2015"}]},
            {"results": [{**_WORK_OK, "publication_year": True}]},
            {"results": [{**_WORK_OK, "display_name": ["Deep learning"]}]},
            {"results": [{**_WORK_OK, "authorships": {"author": "Yann LeCun"}}]},
            {"results": [{**_WORK_OK, "authorships": ["Yann LeCun"]}]},
            {"results": [{**_WORK_OK, "authorships": [{"author": "Yann LeCun"}]}]},
            {"results": [{**_WORK_OK, "primary_location": "Nature"}]},
            {"results": [{**_WORK_OK, "ids": {"doi": 10}}]},
            {"results": [{**_WORK_OK, "biblio": {"first_page": ["436"]}}]},
        ],
    )
    @pytest.mark.parametrize("op", ["title", "author_year"])
    def test_malformed_reply_is_bad_response(self, body, op):
        client = _client(OpenAlexClient, json_response(body))
        if op == "title":
            outcome = client.search_title("Deep learning")
        else:
            outcome = client.search_author_year("LeCun", 2015)
        assert outcome == LookupOutcome(cause="bad_response")

    @pytest.mark.parametrize("error, cause", _REQUEST_ERRORS)
    @pytest.mark.parametrize("op", ["title", "author_year"])
    def test_request_error_is_unavailable(self, error, cause, op):
        client = _client(OpenAlexClient, error)
        if op == "title":
            outcome = client.search_title("Deep learning")
        else:
            outcome = client.search_author_year("LeCun", 2015)
        assert outcome == LookupOutcome(cause=cause)


# Each client's outcome for each HTTP status, the reply body being one that
# parses. Crossref's 404 is NotFound, the one status that is evidence about
# the work; any other status but 200 is an outage.
_OK_REPLIES = {
    CrossrefClient: (
        lambda client: client.lookup_doi("10.1038/nature14539"),
        json_response({"message": _CROSSREF_OK}),
    ),
    ArxivClient: (
        lambda client: client.lookup_arxiv("2101.00001"),
        atom_feed(atom_entry("http://arxiv.org/abs/2101.00001v1", "First")),
    ),
    OpenAlexClient: (
        lambda client: client.search_title("Deep learning"),
        json_response({"results": [_WORK_OK]}),
    ),
}


@pytest.mark.parametrize(
    "klass, status, expected",
    [
        (CrossrefClient, 200, "found"),
        (CrossrefClient, 404, "not_found"),
        (CrossrefClient, 429, "rate_limited"),
        (CrossrefClient, 503, "http_5xx"),
        (CrossrefClient, 400, "http_400"),
        (ArxivClient, 200, "found"),
        (ArxivClient, 404, "http_404"),
        (ArxivClient, 429, "rate_limited"),
        (ArxivClient, 502, "http_5xx"),
        (OpenAlexClient, 200, "found"),
        (OpenAlexClient, 404, "http_404"),
        (OpenAlexClient, 429, "rate_limited"),
        (OpenAlexClient, 500, "http_5xx"),
        (OpenAlexClient, 403, "http_403"),
    ],
)
def test_http_status_maps_to_outcome(klass, status, expected):
    op, ok = _OK_REPLIES[klass]
    outcome = op(_client(klass, FakeResponse(status, ok.text)))
    assert (outcome.cause or outcome.status.value) == expected


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate_limit", math.nan),
        ("rate_limit", math.inf),
        ("rate_limit", -1.0),
        ("timeout", math.nan),
        ("timeout", math.inf),
        ("timeout", 0.0),
        ("timeout", threading.TIMEOUT_MAX * 2),
        ("timeout", 1e300),
        ("rate_limit", 1e-300),
        ("rate_limit", 0.5 / threading.TIMEOUT_MAX),
    ],
)
def test_provider_config_rejects_non_finite_and_out_of_range(field, value):
    # A NaN rate would build no token bucket (no limit at all); a NaN timeout
    # would fail every request as "connection". A wait longer than
    # threading.TIMEOUT_MAX (a timeout, or the 1/rate_limit a token takes)
    # would raise OverflowError in socket.settimeout or time.sleep.
    with pytest.raises(ValueError, match=field):
        ProviderConfig(name="crossref", **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("timeout", threading.TIMEOUT_MAX), ("rate_limit", 1 / threading.TIMEOUT_MAX), ("rate_limit", 0.0)],
)
def test_provider_config_accepts_the_longest_waits(field, value):
    assert getattr(ProviderConfig(name="crossref", **{field: value}), field) == value


_PAPERS = {
    "2101.00001": Paper("Sparse spectral methods", ("Ada Lovelace",), 2021),
    "2102.00002": Paper("Robust graph learning", ("Charles Babbage", "Mary Somerville"), 2021),
    "hep-th/9901001": Paper("Strings on branes", ("Alan Turing",), 1999),
}
_ARXIV = ProviderConfig(name="arxiv", base_endpoint="http://stub/api/query")


class TestArxivBatch:
    def test_batch_equals_single_lookups(self):
        ids = ["2101.00001", "2102.00002v2", "hep-th/9901001", "2103.99999"]
        session = FakeArxivSession(_PAPERS)
        client = ArxivClient(_ARXIV, session=session)
        batched = client.lookup_arxiv_ids(ids)
        assert session.requests == [{"id_list": ",".join(ids), "max_results": 4}]
        assert batched == {i: client.lookup_arxiv(i) for i in ids}
        assert [batched[i].status for i in ids] == [FOUND, FOUND, FOUND, NOT_FOUND]
        old_style = batched["hep-th/9901001"].record
        assert old_style.title == "Strings on branes"
        assert old_style.year == 1999
        assert old_style.provenance_query == "arxiv:hep-th/9901001"
        versioned = batched["2102.00002v2"].record
        assert [a.surname for a in versioned.authors] == ["babbage", "somerville"]
        assert versioned.identifiers == (
            make_identifier(IdentifierKind.ARXIV, "2102.00002v2"),
        )

    def test_entries_matched_by_id_not_position(self):
        reply = atom_feed(
            atom_entry("http://arxiv.org/abs/2102.00002v3", "Second"),
            atom_entry("http://arxiv.org/abs/2101.00001V1", "First"),
        )
        outcomes = _client(ArxivClient, reply).lookup_arxiv_ids(
            ["2101.00001", "2102.00002", "2103.00003"]
        )
        assert outcomes["2101.00001"].record.title == "First"
        assert outcomes["2102.00002"].record.title == "Second"
        assert outcomes["2103.00003"] == LookupOutcome.not_found()

    @pytest.mark.parametrize(
        "reply, cause",
        [
            (FakeResponse(503), "http_5xx"),
            (FakeResponse(429), "rate_limited"),
            (FakeResponse(400), "http_400"),
            (TimeoutError(), "timeout"),
            (http.client.RemoteDisconnected(), "connection"),
            (FakeResponse(200, "<feed"), "bad_response"),
            (atom_feed(ERROR_ENTRY), "bad_response"),
            (
                atom_feed(
                    atom_entry("http://arxiv.org/abs/2101.00001v1", "First"),
                    atom_entry("http://arxiv.org/abs/2109.99999v1", "Unasked"),
                ),
                "bad_response",
            ),
            (atom_feed(atom_entry("2101.00001v1", "No abs URL")), "bad_response"),
            (atom_feed("<entry><title>No id</title></entry>"), "bad_response"),
            *_REQUEST_ERRORS[2:],
        ],
    )
    def test_failed_batch_makes_every_id_unavailable(self, reply, cause):
        ids = ["2101.00001", "2102.00002"]
        outcomes = _client(ArxivClient, reply).lookup_arxiv_ids(ids)
        assert outcomes == {i: LookupOutcome.unavailable(cause) for i in ids}

    def test_lone_id_keeps_the_single_lookup_meaning(self):
        # A batch of one takes the first entry whatever its <id>, and reads
        # an error pseudo-entry as NotFound.
        other = atom_feed(atom_entry("http://arxiv.org/abs/1999.00001v1", "Whatever"))
        outcome = _client(ArxivClient, other).lookup_arxiv("2101.00001")
        assert outcome.status is FOUND
        assert outcome.record.title == "Whatever"
        assert _client(ArxivClient, atom_feed(ERROR_ENTRY)).lookup_arxiv(
            "2101.00001"
        ) == LookupOutcome.not_found()
        assert _client(ArxivClient, atom_feed()).lookup_arxiv(
            "2101.00001"
        ) == LookupOutcome.not_found()


@pytest.mark.parametrize("error", [error for error, _ in _REQUEST_ERRORS])
def test_request_error_is_no_internal_error(error):
    # Every lookup of this citation goes to a client whose request raises.
    providers = [
        _client(klass, error) for klass in (CrossrefClient, ArxivClient, OpenAlexClient)
    ]
    citation = make_citation(
        identifiers=(
            make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),
            make_identifier(IdentifierKind.ARXIV, "2101.00001"),
        ),
    )
    verdict = classify_citation(citation, Resolver(providers=providers), ClassifierConfig())
    assert verdict.status is VerdictStatus.UNVERIFIABLE
    assert verdict.cause == "provider_unavailable"


_FIXTURE_OK = {"title": "Deep learning", "authors": ["Yann LeCun"], "year": 2015}
_LECUN = {"raw": "Y. LeCun", "surname": "lecun"}


@pytest.mark.parametrize(
    "entry",
    [
        {"record": {**_FIXTURE_OK, "identifiers": [{"kind": "isbn", "value": "0-00"}]}},
        {"record": {**_FIXTURE_OK, "identifiers": [{"kind": "doi"}]}},
        {"record": {**_FIXTURE_OK, "identifiers": ["10.1038/nature14539"]}},
        {"record": {**_FIXTURE_OK, "title": 5}},
        {"record": {**_FIXTURE_OK, "year": "2015"}},
        {"record": {**_FIXTURE_OK, "authors": "Yann LeCun"}},
        {"record": {**_FIXTURE_OK, "authors": [7]}},
        {"record": {**_FIXTURE_OK, "authors": [{"surname": "lecun"}]}},
        {"record": {**_FIXTURE_OK, "authors": [{"raw": 5, "surname": 7}]}},
        {"record": {**_FIXTURE_OK, "authors": [{"raw": "Y. LeCun", "surname": 7}]}},
        {"record": {**_FIXTURE_OK, "authors": [{**_LECUN, "given_tokens": "y"}]}},
        {"record": {**_FIXTURE_OK, "authors": [{**_LECUN, "given_tokens": [1]}]}},
        {"record": {**_FIXTURE_OK, "authors": [{**_LECUN, "is_placeholder": "no"}]}},
        {"record": ["Deep learning"]},
        {"status": "found"},
        "found",
    ],
    ids=[
        "unknown-identifier-kind",
        "identifier-without-value",
        "identifier-not-an-object",
        "title-not-a-string",
        "year-not-a-number",
        "authors-not-a-list",
        "author-not-a-name",
        "author-object-without-raw",
        "author-raw-not-a-string",
        "author-surname-not-a-string",
        "author-given-tokens-not-a-list",
        "author-given-token-not-a-string",
        "author-placeholder-not-a-bool",
        "record-not-an-object",
        "no-record",
        "entry-not-an-object",
    ],
)
def test_malformed_fixture_entry_is_bad_response(entry):
    # The entry is parsed when it is looked up, like a provider reply.
    search_entry = {"records": [entry.get("record")]} if isinstance(entry, dict) else entry
    outcomes = {"doi:10.1038/nature14539": entry, "title:deep learning": search_entry}
    provider = FixtureProvider({"closed_world": True, "outcomes": outcomes})
    assert provider.lookup_doi("10.1038/nature14539") == LookupOutcome.unavailable(
        "bad_response"
    )
    assert provider.search_title("Deep learning") == LookupOutcome(cause="bad_response")
    citation = make_citation(
        title="Deep learning",
        authors=("Yann LeCun",),
        year=None,
        identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),),
    )
    verdict = classify_citation(citation, Resolver(providers=[provider]), ClassifierConfig())
    assert verdict.status is VerdictStatus.UNVERIFIABLE
    assert verdict.cause == "provider_unavailable"


def test_well_formed_fixture_entry_is_found():
    # A structured author may leave out the optional fields, or give them all.
    bengio = {"raw": "Y. Bengio", "surname": "bengio"}
    hinton = {
        "raw": "G. Hinton", "surname": "hinton", "given_tokens": ["g"], "is_placeholder": False
    }
    entry = {"record": {**_FIXTURE_OK, "authors": ["Yann LeCun", bengio, hinton]}}
    provider = FixtureProvider({"outcomes": {"doi:10.1/x": entry}})
    outcome = provider.lookup_doi("10.1/x")
    assert outcome.status is FOUND
    assert outcome.record.title == "Deep learning"
    assert [a.surname for a in outcome.record.authors] == ["lecun", "bengio", "hinton"]
    assert outcome.record.authors[2].given_tokens == ("g",)


@pytest.mark.parametrize(
    "closed_world", ["false", "true", 0, 1, [True]], ids=["false-str", "true-str", "0", "1", "list"]
)
def test_fixture_closed_world_must_be_a_bool(closed_world):
    # A truthy string would make every unlisted key NotFound evidence.
    with pytest.raises(ValueError, match="bool"):
        FixtureProvider({"closed_world": closed_world, "outcomes": {}})


def test_fixture_outage_entry_is_unavailable():
    # An outage entry's cause defaults to "offline", also when it is null.
    # An unknown status, or a cause that is not a string, is malformed.
    provider = FixtureProvider(
        {
            "outcomes": {
                "doi:10.1/a": {"status": "unavailable", "cause": None},
                "doi:10.1/b": {"status": "bogus", "record": _FIXTURE_OK},
                "doi:10.1/c": {"status": "unavailable", "cause": 5},
                "title:deep learning": {"status": "unavailable", "cause": None},
            }
        }
    )
    assert provider.lookup_doi("10.1/a") == LookupOutcome.unavailable("offline")
    assert provider.lookup_doi("10.1/b") == LookupOutcome.unavailable("bad_response")
    assert provider.lookup_doi("10.1/c") == LookupOutcome.unavailable("bad_response")
    assert provider.search_title("Deep learning") == LookupOutcome(cause="offline")
