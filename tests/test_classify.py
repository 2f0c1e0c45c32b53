from __future__ import annotations

import dataclasses
import json
import threading
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citeaudit.classify as classify_module
import citeaudit.resolve as resolve_module
from citeaudit.classify import ClassifierConfig, classify, classify_batch
from citeaudit.data import load_packaged_vocab, packaged_fixture_provider
from citeaudit.identifiers import make_identifier
from citeaudit.matching import MatchThresholds, normalize_title
from citeaudit.model import (
    FailureMode,
    IdentifierKind,
    Verdict,
    VerdictStatus,
)
from citeaudit.parsing import parse_file, parse_text
from citeaudit.resolve import (
    ArxivClient,
    FixtureProvider,
    LookupOutcome,
    LookupStatus,
    ProviderConfig,
    ResolutionBundle,
    Resolver,
    SearchOutcome,
)
from tests.conftest import DATA_DIR, classify_citation, make_citation, make_record
from tests.http_fakes import FakeArxivSession, Paper
from tests.test_parsing import DBLP_VASWANI

TF = FailureMode.TF
PAC = FailureMode.PAC
IH = FailureMode.IH
SH = FailureMode.SH
PH = FailureMode.PH


@pytest.fixture(scope="module")
def config() -> ClassifierConfig:
    return ClassifierConfig(vocab=load_packaged_vocab())


@pytest.fixture(scope="module")
def resolver() -> Resolver:
    return Resolver(providers=[packaged_fixture_provider()])


def classify_exemplar(exemplar_citations, resolver, config, index):
    return classify_citation(exemplar_citations[index], resolver, config)


class TestExemplars:
    def test_fabricated_everything(self, exemplar_citations, resolver, config):
        v = classify_exemplar(exemplar_citations, resolver, config, 0)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is TF
        assert v.secondary is SH

    def test_corrupted_attributes(self, exemplar_citations, resolver, config):
        v = classify_exemplar(exemplar_citations, resolver, config, 1)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is PAC
        assert v.secondary is SH
        pac_items = [e for e in v.evidence if e.mode is PAC]
        assert pac_items and "Fundamentals" in pac_items[0].detail

    def test_hijacked_identifier(self, exemplar_citations, resolver, config):
        v = classify_exemplar(exemplar_citations, resolver, config, 2)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is IH
        assert v.secondary is SH
        ih_items = [e for e in v.evidence if e.mode is IH]
        assert ih_items and "Pre-train" in ih_items[0].detail

    def test_plausible_but_absent(self, exemplar_citations, resolver, config):
        v = classify_exemplar(exemplar_citations, resolver, config, 3)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is SH

    def test_template_placeholders(self, exemplar_citations, resolver, config):
        v = classify_exemplar(exemplar_citations, resolver, config, 4)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is PH
        assert len([e for e in v.evidence if e.mode is PH]) >= 3

    def test_all_primaries_in_order(self, exemplar_citations, resolver, config):
        primaries = [
            classify_citation(c, resolver, config).primary for c in exemplar_citations
        ]
        assert primaries == [TF, PAC, IH, SH, PH]

    def test_deterministic(self, exemplar_citations, resolver, config):
        first = [classify_citation(c, resolver, config) for c in exemplar_citations]
        second = [classify_citation(c, resolver, config) for c in exemplar_citations]
        assert first == second


class TestVerifiedPaths:
    def test_verified_via_identifier(self, resolver, config):
        c = make_citation(
            authors=("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"),
            title="Deep learning",
            year=2015,
            identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),),
        )
        v = classify_citation(c, resolver, config)
        assert v.status is VerdictStatus.VERIFIED
        assert v.matched_record.title == "Deep learning"

    def test_verified_via_title_search(self, resolver, config):
        c = make_citation(
            authors=("Diederik P. Kingma", "Jimmy Ba"),
            title="Adam: A Method for Stochastic Optimization",
            year=2015,
        )
        v = classify_citation(c, resolver, config)
        assert v.status is VerdictStatus.VERIFIED

    def test_wrong_year_blocks_verification(self, resolver, config):
        c = make_citation(
            authors=("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"),
            title="Deep learning",
            year=2019,
            identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),),
        )
        v = classify_citation(c, resolver, config)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is PAC

    def test_missing_year_blocks_verification(self, resolver, config):
        c = make_citation(
            authors=("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"),
            title="Deep learning",
            year=None,
            identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),),
        )
        v = classify_citation(c, resolver, config)
        assert v.status is not VerdictStatus.VERIFIED


def _records_held(bundle) -> int:
    """Found identifier records plus search records: what the bundle holds."""
    found = [o for _, o in bundle.identifier_outcomes if o.status is LookupStatus.FOUND]
    searches = [s for s in (bundle.title_search, bundle.author_search) if s is not None]
    return len(found) + sum(len(s.records) for s in searches)


def _stripped(bundle):
    """The same bundle as a library caller would build it: no profiles."""
    return dataclasses.replace(
        bundle, identifier_profiles=(), search_profiles=(), thresholds=None
    )


@pytest.fixture(scope="module")
def audited_citations(exemplar_citations):
    """The golden report's input (the exemplars) and a clean bibliography."""
    return list(exemplar_citations) + list(parse_file(DATA_DIR / "clean.bib").citations)


class TestProfileOnce:
    """Each (citation, record) pair is profiled once: by the resolver when
    it built the bundle, by classify() only for a bundle built by hand."""

    @pytest.fixture()
    def profile_calls(self, monkeypatch):
        calls = []
        for module in (classify_module, resolve_module):
            original = module.profile_match

            def counting(citation, record, thresholds, module=module, original=original):
                calls.append((module.__name__, record))
                return original(citation, record, thresholds)

            monkeypatch.setattr(module, "profile_match", counting)
        return calls

    def test_hallucinated_citation_profiles_each_record_once(self, config, profile_calls):
        c = make_citation(
            key="c1",
            authors=("Ada Lovelace",),
            title="Notes on the analytical engine",
            year=2020,
        )
        found = [
            make_record(title="A different work", authors=("Charles Babbage",)),
            make_record(title="Yet another work", authors=("Mary Somerville",)),
        ]
        searched = [
            make_record(title=f"Unrelated search hit {i}", authors=("Alan Turing",))
            for i in range(5)
        ]
        bundle = ResolutionBundle(
            citation_key="c1",
            identifier_outcomes=(
                ("doi:10.1/a", LookupOutcome.found(found[0])),
                ("doi:10.1/missing", LookupOutcome.not_found()),
                ("arxiv:2001.00001", LookupOutcome.found(found[1])),
                ("doi:10.1/down", LookupOutcome.unavailable("timeout")),
            ),
            title_search=SearchOutcome(records=tuple(searched[:3])),
            author_search=SearchOutcome(records=tuple(searched[3:])),
        )
        v = classify(c, bundle, config)
        assert v.status is VerdictStatus.HALLUCINATED
        assert len(profile_calls) == len(found) + len(searched)
        assert {id(r) for _, r in profile_calls} == {id(r) for r in found + searched}

    def test_exemplars_profile_each_candidate_once(
        self, exemplar_citations, resolver, config, profile_calls
    ):
        for citation in exemplar_citations:
            profile_calls.clear()
            bundle = resolver.resolve_citation(citation)
            v = classify(citation, bundle, config)
            assert v.status is VerdictStatus.HALLUCINATED
            assert len(profile_calls) == _records_held(bundle)
            assert all(where == "citeaudit.resolve" for where, _ in profile_calls)

    def test_resolver_built_bundles_need_no_classify_profiles(
        self, audited_citations, resolver, config, profile_calls
    ):
        held = 0
        for citation in audited_citations:
            bundle = resolver.resolve_citation(citation)
            held += _records_held(bundle)
            classify(citation, bundle, config)
        assert held
        assert len(profile_calls) == held
        assert [r for where, r in profile_calls if where != "citeaudit.resolve"] == []

    def test_resolver_thresholds_need_no_classify_profiles(
        self, audited_citations, resolver, config, profile_calls
    ):
        strict = Resolver(
            providers=[packaged_fixture_provider()],
            thresholds=MatchThresholds(author_strong=0.95),
        )
        changed = 0
        for citation in audited_citations:
            bundle = strict.resolve_citation(citation)
            profile_calls.clear()
            verdict = classify(citation, bundle, config)
            assert profile_calls == []
            changed += verdict != classify(citation, resolver.resolve_citation(citation), config)
        # The verdicts follow the resolver's thresholds, not the defaults.
        assert changed


def test_carried_profiles_give_the_stripped_verdict(audited_citations, config):
    resolver = Resolver(providers=[packaged_fixture_provider()])
    statuses = set()
    for citation in audited_citations:
        bundle = resolver.resolve_citation(citation)
        verdict = classify(citation, bundle, config)
        assert verdict == classify(citation, _stripped(bundle), config)
        statuses.add(verdict.status)
    assert statuses == {VerdictStatus.VERIFIED, VerdictStatus.HALLUCINATED}


class TestClassifierConfig:
    @pytest.mark.parametrize("plausibility", [0.0, 1.0])
    def test_plausibility_bounds_accepted(self, plausibility):
        assert ClassifierConfig(plausibility=plausibility).plausibility == plausibility

    @pytest.mark.parametrize("plausibility", [-0.1, 1.1])
    def test_plausibility_out_of_range_rejected(self, plausibility):
        with pytest.raises(ValueError, match="plausibility"):
            ClassifierConfig(plausibility=plausibility)


class TestOutageSafety:
    def test_full_outage_is_unverifiable(self, config):
        outage = Resolver(
            providers=[FixtureProvider({"closed_world": False, "outcomes": {}})]
        )
        c = make_citation(
            identifiers=(make_identifier(IdentifierKind.DOI, "10.1038/nature14539"),)
        )
        v = classify_citation(c, outage, config)
        assert v.status is VerdictStatus.UNVERIFIABLE
        assert v.cause == "offline"
        assert v.primary is None and v.secondary is None

    def test_outage_beats_placeholder_evidence(self, config):
        outage = Resolver(
            providers=[FixtureProvider({"closed_world": False, "outcomes": {}})]
        )
        c = make_citation(authors=("Firstname Lastname",), title="Some title", year=2020)
        v = classify_citation(c, outage, config)
        assert v.status is VerdictStatus.UNVERIFIABLE

    def test_rate_limited_cause_mapped(self, config):
        bundle = ResolutionBundle(
            citation_key="c1",
            identifier_outcomes=(
                ("doi:10.1/x", LookupOutcome.unavailable("rate_limited")),
            ),
        )
        c = make_citation(identifiers=(make_identifier(IdentifierKind.DOI, "10.1/x"),))
        v = classify(c, bundle, config)
        assert v.status is VerdictStatus.UNVERIFIABLE
        assert v.cause == "rate_limited"

    def test_mixed_causes_map_to_provider_unavailable(self, config):
        bundle = ResolutionBundle(
            citation_key="c1",
            identifier_outcomes=(
                ("doi:10.1/x", LookupOutcome.unavailable("timeout")),
            ),
            title_search=SearchOutcome(cause="http_5xx"),
        )
        c = make_citation(identifiers=(make_identifier(IdentifierKind.DOI, "10.1/x"),))
        v = classify(c, bundle, config)
        assert v.cause == "provider_unavailable"

    def test_partial_availability_still_classifies(self, config):
        bundle = ResolutionBundle(
            citation_key="c1",
            identifier_outcomes=(
                ("doi:10.1/x", LookupOutcome.unavailable("timeout")),
            ),
            title_search=SearchOutcome(records=()),
        )
        c = make_citation(identifiers=(make_identifier(IdentifierKind.DOI, "10.1/x"),))
        v = classify(c, bundle, config)
        assert v.status is VerdictStatus.HALLUCINATED


_ARXIV_DOI_BIB = """@inproceedings{vaswani2017attention,
  author = {Ashish Vaswani and Noam Shazeer and Niki Parmar and Jakob Uszkoreit and Llion Jones and Aidan N. Gomez and Lukasz Kaiser and Illia Polosukhin},
  title = {Attention Is All You Need},
  booktitle = {Advances in Neural Information Processing Systems},
  year = {2017},
  doi = {10.48550/arXiv.1706.03762},
}
"""


class TestArxivDoi:
    """Crossref does not hold arXiv's DataCite DOIs, so its NotFound for one
    is no evidence; the DOI is looked up at arXiv as its id."""

    @staticmethod
    def _verdict(config, outcomes):
        (citation,) = parse_text(_ARXIV_DOI_BIB).citations
        fixture = {
            "closed_world": False,
            "outcomes": {"doi:10.48550/arxiv.1706.03762": {"status": "not_found"}, **outcomes},
        }
        return classify_citation(citation, Resolver(providers=[FixtureProvider(fixture)]), config)

    def test_searches_down_is_unverifiable(self, config):
        v = self._verdict(config, {})
        assert v.status is VerdictStatus.UNVERIFIABLE

    def test_arxiv_record_verifies(self, config):
        paper = json.loads(files("citeaudit").joinpath("data/fixtures.json").read_text())
        v = self._verdict(
            config, {"arxiv:1706.03762": paper["outcomes"]["arxiv:1706.03762"]}
        )
        assert v.status is VerdictStatus.VERIFIED


class TestBibtexAuthorForms:
    """A real paper whose .bib entry wraps its author list the way DBLP
    exports it, spells a letter with a LaTeX command, or sets a title word
    in bold, is verified."""

    @staticmethod
    def _verdict(config, bib, title, authors, year):
        (citation,) = parse_text(bib).citations
        record = {"title": title, "authors": authors, "venue": "V", "year": year}
        fixture = {
            "closed_world": False,
            "outcomes": {f"title:{normalize_title(title)}": {"records": [record]}},
        }
        return classify_citation(citation, Resolver(providers=[FixtureProvider(fixture)]), config)

    def test_dblp_wrapped_authors_verify(self, config):
        v = self._verdict(
            config,
            DBLP_VASWANI,
            "Attention is All you Need",
            ["Ashish Vaswani", "Noam Shazeer", "Niki Parmar"],
            2017,
        )
        assert v.status is VerdictStatus.VERIFIED

    @pytest.mark.parametrize("spelling", ["S{\\o}rensen", "Sørensen"])
    def test_letter_command_verifies_like_unicode(self, config, spelling):
        title = "Dense passage retrieval for open questions"
        bib = f"@article{{s, author={{Jens {spelling}}}, title={{{title}}}, year={{2020}}}}"
        v = self._verdict(config, bib, title, ["Jens Sørensen"], 2020)
        assert v.status is VerdictStatus.VERIFIED

    def test_bold_title_word_verifies(self, config):
        bib = "@article{b, author={Jacob Devlin}, title={\\textbf{BERT} rocks}, year={2019}}"
        v = self._verdict(config, bib, "BERT rocks", ["Jacob Devlin"], 2019)
        assert v.status is VerdictStatus.VERIFIED


class TestContracts:
    def test_bundle_for_other_citation_rejected(self, config):
        bundle = ResolutionBundle(citation_key="other")
        with pytest.raises(ValueError):
            classify(make_citation(key="c1"), bundle, config)

    def test_nothing_attempted_nothing_wrong_is_unverifiable(self, config):
        bundle = ResolutionBundle(citation_key="c1")
        v = classify(make_citation(key="c1"), bundle, config)
        assert v.status is VerdictStatus.UNVERIFIABLE
        assert v.cause == "no_resolvable_fields"

    def test_placeholders_classify_without_any_lookup(self, config):
        bundle = ResolutionBundle(citation_key="c1")
        c = make_citation(key="c1", authors=("Firstname Lastname", "Others"))
        v = classify(c, bundle, config)
        assert v.status is VerdictStatus.HALLUCINATED
        assert v.primary is PH


class TestShGate:
    def _unfindable_citation(self):
        return make_citation(
            key="c1",
            authors=("Neel Nanda",),
            title="Progress in mechanistic interpretability",
            year=2023,
        )

    def _bundle(self, author_records):
        return ResolutionBundle(
            citation_key="c1",
            title_search=SearchOutcome(records=()),
            author_search=SearchOutcome(records=tuple(author_records)),
        )

    def test_confirmed_author_allows_sh(self, config):
        real = make_record(
            title="Progress measures for grokking via mechanistic interpretability",
            authors=("Neel Nanda", "Lawrence Chan"),
            year=2023,
        )
        v = classify(self._unfindable_citation(), self._bundle([real]), config)
        assert v.primary is SH

    def test_unknown_author_falls_back_to_tf(self, config):
        v = classify(self._unfindable_citation(), self._bundle([]), config)
        assert v.primary is TF

    def test_gate_can_be_disabled(self, config):
        relaxed = ClassifierConfig(vocab=config.vocab, sh_requires_real_author=False)
        v = classify(self._unfindable_citation(), self._bundle([]), relaxed)
        assert v.primary is SH

    def test_implausible_title_never_sh(self, config):
        c = make_citation(
            key="c1",
            authors=("Neel Nanda",),
            title="Zzkw qqv jjx wwy",
            year=2023,
        )
        real = make_record(authors=("Neel Nanda",), year=2023)
        v = classify(c, self._bundle([real]), config)
        assert v.primary is not SH
        assert all(e.mode is not SH for e in v.evidence)


class TestPlaceholderDominance:
    def test_placeholder_id_promotes_ph_primary(self, config):
        plain = make_citation(key="c1", title="Zzkw qqv jjx wwy")
        bundle = ResolutionBundle(
            citation_key="c1", title_search=SearchOutcome(records=())
        )
        assert classify(plain, bundle, config).primary is TF

        with_ph = make_citation(
            key="c1",
            title="Zzkw qqv jjx wwy",
            identifiers=(make_identifier(IdentifierKind.ARXIV, "XXXX.XXXXX"),),
        )
        assert classify(with_ph, bundle, config).primary is PH


def _fixture_arxiv_papers() -> dict:
    """The packaged fixture's arXiv records, as a fake arXiv endpoint serves them."""
    papers = {}
    for key, entry in json.loads(
        (files("citeaudit") / "data" / "fixtures.json").read_text("utf-8")
    )["outcomes"].items():
        if key.startswith("arxiv:") and entry.get("status") == "found":
            record = entry["record"]
            papers[key[len("arxiv:"):]] = Paper(
                record["title"], tuple(record["authors"]), record["year"]
            )
    return papers


def _arxiv_citations(exemplar_citations) -> list:
    """The exemplars, then a true citation, a hijacked id and a missing id."""
    extra = [
        make_citation(
            key="attention",
            authors=(
                "Ashish Vaswani", "Noam Shazeer", "Niki Parmar", "Jakob Uszkoreit",
                "Llion Jones", "Aidan N. Gomez", "Lukasz Kaiser", "Illia Polosukhin",
            ),
            title="Attention Is All You Need",
            year=2017,
            identifiers=(make_identifier(IdentifierKind.ARXIV, "1706.03762"),),
        ),
        make_citation(
            key="hijacked",
            identifiers=(make_identifier(IdentifierKind.ARXIV, "arXiv:1412.6980v2"),),
        ),
        make_citation(
            key="missing",
            identifiers=(make_identifier(IdentifierKind.ARXIV, "9999.99999"),),
        ),
    ]
    return list(exemplar_citations) + extra


def _arxiv_resolver(session, *providers) -> Resolver:
    """arXiv lookups go to a batching client over session; every other op to
    the first of providers that has it, else to the packaged fixture."""
    arxiv = ArxivClient(
        ProviderConfig(name="arxiv", base_endpoint="http://stub"), session=session
    )
    return Resolver(providers=[arxiv, *providers, packaged_fixture_provider()])


def _classify_with_arxiv(citations, config, session, jobs=2):
    return classify_batch(citations, _arxiv_resolver(session), config, jobs=jobs)


def _one_by_one(citations, config, session):
    """Each citation resolved and classified alone, so each arXiv id goes
    out in a request of its own."""
    resolver = _arxiv_resolver(session)
    return [classify_citation(c, resolver, config) for c in citations]


class _BrokenBatchSession(FakeArxivSession):
    """Raises on every request of more than one id. The error is not one
    the transport raises, which the client would map to Unavailable, so it
    escapes the batch."""

    def get(self, url, params=None, timeout=None):
        if "," in params["id_list"]:
            self.requests.append(dict(params))
            raise RuntimeError("session failed mid-request")
        return super().get(url, params=params, timeout=timeout)


class _FailingSearch:
    """A network provider of title searches: raises on the one for "title"
    and answers every other from the packaged fixture. calls counts them."""

    config = ProviderConfig(name="failing-search")

    def __init__(self, title: str):
        self.title = title
        self.calls: list[str] = []
        self._fixture = packaged_fixture_provider()

    def search_title(self, title):
        self.calls.append(title)
        if title == self.title:
            raise RuntimeError("boom")
        return self._fixture.search_title(title)


@pytest.fixture()
def threads_of(monkeypatch):
    """The threads that called classify(), the ladders' profile_match and
    the arXiv requests (ArxivClient.lookup_arxiv_ids), by name."""
    seen: dict[str, set[int]] = {}

    def record(owner, name):
        original = getattr(owner, name)

        def recording(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)

    record(classify_module, "classify")
    record(resolve_module, "profile_match")
    record(ArxivClient, "lookup_arxiv_ids")
    return seen


class TestBatch:
    def test_parallel_matches_sequential(self, exemplar_citations, config):
        sequential = classify_batch(
            exemplar_citations,
            Resolver(providers=[packaged_fixture_provider()]),
            config,
            jobs=1,
        )
        parallel = classify_batch(
            exemplar_citations,
            Resolver(providers=[packaged_fixture_provider()]),
            config,
            jobs=4,
        )
        assert sequential == parallel
        assert [v.citation_key for v in parallel] == [
            c.source_key for c in exemplar_citations
        ]

    def test_lookup_threads_leave_verdicts_unchanged(self, exemplar_citations, config):
        papers = _fixture_arxiv_papers()
        citations = _arxiv_citations(exemplar_citations)
        one = _classify_with_arxiv(citations, config, FakeArxivSession(papers), jobs=1)
        four = _classify_with_arxiv(citations, config, FakeArxivSession(papers), jobs=4)
        assert one == four
        assert [v.citation_key for v in four] == [c.source_key for c in citations]

    def test_classify_runs_on_the_calling_thread(
        self, exemplar_citations, config, threads_of
    ):
        citations = _arxiv_citations(exemplar_citations)
        session = FakeArxivSession(_fixture_arxiv_papers())
        verdicts = _classify_with_arxiv(citations, config, session, jobs=4)
        assert len(verdicts) == len(citations)
        assert threads_of["classify"] == {threading.get_ident()}
        # The ladders run here; the requests go out on the arXiv lane.
        assert threads_of["profile_match"] == {threading.get_ident()}
        assert threading.get_ident() not in threads_of["lookup_arxiv_ids"]

    def test_prefetch_leaves_verdicts_unchanged(self, exemplar_citations, config):
        papers = _fixture_arxiv_papers()
        citations = _arxiv_citations(exemplar_citations)
        batched = FakeArxivSession(papers)
        with_prefetch = _classify_with_arxiv(citations, config, batched)
        single = FakeArxivSession(papers)
        without_prefetch = _one_by_one(citations, config, single)
        assert with_prefetch == without_prefetch
        ids = ["2107.13586", "1706.03762", "1412.6980", "9999.99999"]
        assert batched.requests == [{"id_list": ",".join(ids), "max_results": 4}]
        assert sorted(r["id_list"] for r in single.requests) == sorted(ids)
        assert [v.status for v in with_prefetch] == [VerdictStatus.HALLUCINATED] * 5 + [
            VerdictStatus.VERIFIED,
            VerdictStatus.HALLUCINATED,
            VerdictStatus.HALLUCINATED,
        ]
        assert IH in (with_prefetch[2].primary, with_prefetch[2].secondary)
        assert IH in (with_prefetch[6].primary, with_prefetch[6].secondary)

    def test_prefetch_error_does_not_sink_the_batch(self, exemplar_citations, config):
        papers = _fixture_arxiv_papers()
        citations = _arxiv_citations(exemplar_citations)
        session = _BrokenBatchSession(papers)
        verdicts = _classify_with_arxiv(citations, config, session)
        # The batch raised; each id then went out alone.
        assert session.requests[0]["max_results"] == 4
        assert len(session.requests) == 5
        assert [v.citation_key for v in verdicts] == [c.source_key for c in citations]
        assert verdicts == _one_by_one(citations, config, FakeArxivSession(papers))

    def test_internal_error_becomes_unverifiable(self, exemplar_citations, config):
        # Only the citation whose resolution raised loses its verdict.
        citations = _arxiv_citations(exemplar_citations)
        session = FakeArxivSession(_fixture_arxiv_papers())
        resolver = _arxiv_resolver(session, _FailingSearch(citations[1].title))
        verdicts = classify_batch(citations, resolver, config, jobs=2)
        reference = _classify_with_arxiv(citations, config, session)
        assert citations[1].source_key == "2"
        assert verdicts[1] == Verdict(
            status=VerdictStatus.UNVERIFIABLE,
            citation_key="2",
            cause="internal_error:resolve:RuntimeError",
        )
        assert verdicts[:1] + verdicts[2:] == reference[:1] + reference[2:]

    def test_fixture_raising_in_place_costs_only_its_citation(self, exemplar_citations, config):
        # A fixture is asked on the calling thread, so its exception ends
        # that citation's ladder there, not on a lane.
        title = exemplar_citations[1].title
        askers: list[str] = []

        class RaisingFixture(FixtureProvider):
            def search_title(self, query):
                askers.append(threading.current_thread().name)
                if query == title:
                    raise RuntimeError("boom")
                return super().search_title(query)

        entries = json.loads(files("citeaudit").joinpath("data/fixtures.json").read_text("utf-8"))
        resolver = Resolver(providers=[RaisingFixture(entries, name="fixture")])
        verdicts = classify_batch(exemplar_citations, resolver, config, jobs=2)
        reference = classify_batch(
            exemplar_citations, Resolver(providers=[packaged_fixture_provider()]), config, jobs=2
        )
        assert set(askers) == {threading.current_thread().name}
        assert verdicts[1] == Verdict(
            status=VerdictStatus.UNVERIFIABLE,
            citation_key=exemplar_citations[1].source_key,
            cause="internal_error:resolve:RuntimeError",
        )
        assert verdicts[:1] + verdicts[2:] == reference[:1] + reference[2:]

    def test_raising_op_costs_only_the_citations_waiting_on_its_key(self, config):
        # The search raises on its lane once, for both citations that wait on
        # it; the third citation is unaffected, and resolve_all does not hang.
        title = "A benchmark model for power system stability controls"
        citations = [
            make_citation(key=key, title=title, authors=(), year=None) for key in ("a", "b")
        ] + [make_citation(key="c", title="Attention Is All You Need", authors=(), year=None)]
        search = _FailingSearch(title)
        resolver = Resolver(providers=[search, packaged_fixture_provider()])
        verdicts: list = []
        worker = threading.Thread(
            target=lambda: verdicts.extend(classify_batch(citations, resolver, config, jobs=2))
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert search.calls.count(title) == 1
        assert [v.cause for v in verdicts[:2]] == ["internal_error:resolve:RuntimeError"] * 2
        alone = Resolver(providers=[packaged_fixture_provider()])
        assert verdicts[2:] == classify_batch(citations[2:], alone, config)

    def test_classify_error_becomes_unverifiable(
        self, exemplar_citations, config, monkeypatch
    ):
        citations = _arxiv_citations(exemplar_citations)
        reference = _classify_with_arxiv(
            citations, config, FakeArxivSession(_fixture_arxiv_papers())
        )
        original = classify_module.classify

        def failing(citation, bundle, config):
            if citation.source_key == "attention":
                raise KeyError(citation.source_key)
            return original(citation, bundle, config)

        monkeypatch.setattr(classify_module, "classify", failing)
        verdicts = _classify_with_arxiv(
            citations, config, FakeArxivSession(_fixture_arxiv_papers())
        )
        assert verdicts[5] == Verdict(
            status=VerdictStatus.UNVERIFIABLE,
            citation_key="attention",
            cause="internal_error:classify:KeyError",
        )
        assert verdicts[:5] + verdicts[6:] == reference[:5] + reference[6:]


# --- synthetic evidence space ------------------------------------------------
#
# The generator builds (citation, bundle) pairs spanning every evidence
# source the classifier reads. The verdict constructor enforces the
# distinct-secondary contract, so any violation surfaces as an exception.

_VOCAB = frozenset(
    {"adaptive", "spectral", "methods", "sparse", "learning", "graphs", "robust"}
)
_PLAUSIBLE_TITLE = "Adaptive spectral methods for sparse learning"
_GIBBERISH_TITLE = "Zzkw qqv jjx wwy"


@st.composite
def _citation_and_bundle(draw):
    authors = draw(
        st.lists(
            st.sampled_from(
                ["Ada Lovelace", "Charles Babbage", "Firstname Lastname", "Others"]
            ),
            max_size=3,
            unique=True,
        )
    )
    title = draw(st.sampled_from([_PLAUSIBLE_TITLE, _GIBBERISH_TITLE, ""]))
    year = draw(st.sampled_from([None, 2020, 2023]))
    id_choice = draw(st.sampled_from(["none", "doi", "arxiv_placeholder", "both"]))
    identifiers = ()
    if id_choice in ("doi", "both"):
        identifiers += (make_identifier(IdentifierKind.DOI, "10.1234/abc.def"),)
    if id_choice in ("arxiv_placeholder", "both"):
        identifiers += (make_identifier(IdentifierKind.ARXIV, "XXXX.XXXXX"),)

    citation = make_citation(
        key="c1", authors=tuple(authors), title=title, year=year,
        identifiers=identifiers,
    )

    matching = make_record(
        title=title or "Untitled", authors=tuple(authors) or ("Ada Lovelace",),
        year=year,
    )
    mismatching = make_record(
        title="A completely different record title",
        authors=("Grace Hopper", "Alan Turing"),
        year=1950,
    )
    confirming = make_record(
        title="Some other work entirely",
        authors=tuple(authors) or ("Grace Hopper",),
        year=year or 2020,
    )

    id_outcomes = []
    if identifiers and identifiers[0].syntactically_valid:
        outcome = draw(
            st.sampled_from(
                [
                    LookupOutcome.found(matching),
                    LookupOutcome.found(mismatching),
                    LookupOutcome.not_found(),
                    LookupOutcome.unavailable("timeout"),
                    LookupOutcome.unavailable("offline"),
                ]
            )
        )
        id_outcomes.append(("doi:10.1234/abc.def", outcome))

    title_search = draw(
        st.sampled_from(
            [
                None,
                SearchOutcome(records=()),
                SearchOutcome(records=(mismatching,)),
                SearchOutcome(records=(matching,)),
                SearchOutcome(cause="offline"),
            ]
        )
    )
    author_search = draw(
        st.sampled_from(
            [
                None,
                SearchOutcome(records=()),
                SearchOutcome(records=(confirming,)),
                SearchOutcome(cause="offline"),
            ]
        )
    )
    bundle = ResolutionBundle(
        citation_key="c1",
        identifier_outcomes=tuple(id_outcomes),
        title_search=title_search,
        author_search=author_search,
    )
    return citation, bundle


@settings(max_examples=300)
@given(pair=_citation_and_bundle())
def test_every_hallucinated_verdict_is_compound(pair):
    citation, bundle = pair
    config = ClassifierConfig(vocab=_VOCAB)
    verdict = classify(citation, bundle, config)
    if verdict.status is VerdictStatus.HALLUCINATED:
        assert verdict.primary is not None
        assert verdict.secondary is not None
        assert verdict.primary is not verdict.secondary
        assert verdict.evidence
    attempts = bundle.attempts()
    if attempts and all(unavailable for _, unavailable, _ in attempts):
        assert verdict.status is VerdictStatus.UNVERIFIABLE
