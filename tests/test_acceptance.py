"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints exactly one
[PASS]/[FAIL] line on the real stdout, with its tolerance pinned inline.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from citeaudit.analytics import summarize
from citeaudit.classify import ClassifierConfig, classify, classify_batch
from citeaudit.cli import main
from citeaudit.data import load_packaged_corpus, load_packaged_vocab, packaged_fixture_provider
from citeaudit.identifiers import IdentifierSyntax, make_identifier
from citeaudit.matching import levenshtein
from citeaudit.model import FailureMode, IdentifierKind, VerdictStatus
from citeaudit.report import EXIT_UNVERIFIABLE
from citeaudit.resolve import (
    LookupOutcome,
    ProviderConfig,
    ResolutionBundle,
    Resolver,
    SearchOutcome,
)
from tests import conftest
from tests.conftest import classify_citation, make_citation, make_record
from tests.oracles import edit_distance_matrix, edit_similarity

DATA = Path(__file__).parent / "data"

MEAN_TOLERANCE = 0.005          # criterion 2: mean flagged citations per paper
FLOAT_TOLERANCE = 1e-9          # criterion 6: similarity comparison
SUMMARY_TIME_LIMIT = 1.0        # criteria 1-2: seconds
EXEMPLAR_TIME_LIMIT = 1.0      # criterion 3: seconds for all five
EDIT_TIME_LIMIT = 5.0           # criterion 6: seconds for 1,000 pairs
WINDOW_LIMIT = 11               # criterion 8: rate_limit 10 + 1 burst token


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append((number, description, False))
        raise
    conftest.ACCEPTANCE_RESULTS.append((number, description, True))


def test_criterion_1_primary_distribution():
    with criterion(1, "coded corpus primary counts TF=66 PAC=27 IH=4 PH=2 SH=1 in <1s"):
        start = time.monotonic()
        summary = summarize(load_packaged_corpus())
        elapsed = time.monotonic() - start
        assert summary.primary_counts == {
            "TF": 66,
            "PAC": 27,
            "IH": 4,
            "PH": 2,
            "SH": 1,
        }
        assert elapsed < SUMMARY_TIME_LIMIT


def test_criterion_2_per_paper_distribution():
    with criterion(
        2,
        "53 papers, mean 1.89±0.005, median 2, max 13, 49 papers with 1-2,"
        " compound rate 1.0, in <1s",
    ):
        start = time.monotonic()
        summary = summarize(load_packaged_corpus())
        elapsed = time.monotonic() - start
        assert summary.n_papers == 53
        assert abs(summary.mean_per_paper - 1.89) <= MEAN_TOLERANCE
        assert summary.median_per_paper == 2.0
        assert summary.max_per_paper == 13
        assert summary.buckets["1-2"] == 49
        assert summary.compound_rate == 1.0
        assert elapsed < SUMMARY_TIME_LIMIT


def test_criterion_3_exemplars(exemplar_citations, classifier_config):
    with criterion(
        3, "five exemplar citations classify TF/PAC/IH/SH/PH with compound verdicts in <1s"
    ):
        resolver = Resolver(providers=[packaged_fixture_provider()])
        start = time.monotonic()
        verdicts = [
            classify_citation(c, resolver, classifier_config)
            for c in exemplar_citations
        ]
        elapsed = time.monotonic() - start
        assert [v.primary for v in verdicts] == [
            FailureMode.TF,
            FailureMode.PAC,
            FailureMode.IH,
            FailureMode.SH,
            FailureMode.PH,
        ]
        assert verdicts[0].secondary is FailureMode.SH
        assert all(v.status is VerdictStatus.HALLUCINATED for v in verdicts)
        assert all(v.secondary is not None and v.secondary is not v.primary for v in verdicts)
        assert elapsed < EXEMPLAR_TIME_LIMIT


def test_criterion_4_compound_verdicts_over_synthetic_evidence():
    with criterion(
        4,
        "every hallucinated verdict over >=500 synthetic evidence combinations"
        " carries a distinct secondary code",
    ):
        vocab = frozenset(
            {"adaptive", "spectral", "methods", "sparse", "learning", "graphs"}
        )
        config = ClassifierConfig(vocab=vocab)
        plausible = "Adaptive spectral methods for sparse learning"
        gibberish = "Zzkw qqv jjx wwy"

        author_options = (
            (),
            ("Ada Lovelace", "Charles Babbage"),
            ("Firstname Lastname",),
            ("Ada Lovelace", "Others"),
        )
        title_options = (plausible, gibberish, "")
        year_options = (None, 2021)
        mismatching = make_record(
            title="A completely different record title",
            authors=("Grace Hopper", "Alan Turing"),
            year=1950,
        )

        combos = 0
        checked_hallucinated = 0
        for authors, title, year in itertools.product(
            author_options, title_options, year_options
        ):
            citation = make_citation(
                key="c1",
                authors=authors,
                title=title,
                year=year,
                identifiers=(
                    make_identifier(IdentifierKind.DOI, "10.1234/abc.def"),
                ),
            )
            matching = make_record(
                title=title or "Untitled",
                authors=authors or ("Ada Lovelace",),
                year=year,
            )
            confirming = make_record(
                title="Some other work entirely",
                authors=authors or ("Grace Hopper",),
                year=year or 2020,
            )
            id_options = (
                None,  # identifier never looked up
                LookupOutcome.found(matching),
                LookupOutcome.found(mismatching),
                LookupOutcome.not_found(),
                LookupOutcome.unavailable("timeout"),
            )
            search_options = (
                None,
                SearchOutcome(records=()),
                SearchOutcome(records=(mismatching,)),
                SearchOutcome(cause="offline"),
            )
            author_search_options = (
                None,
                SearchOutcome(records=(confirming,)),
                SearchOutcome(records=()),
            )
            for id_outcome, title_search, author_search in itertools.product(
                id_options, search_options, author_search_options
            ):
                bundle = ResolutionBundle(
                    citation_key="c1",
                    identifier_outcomes=(
                        (("doi:10.1234/abc.def", id_outcome),)
                        if id_outcome is not None
                        else ()
                    ),
                    title_search=title_search,
                    author_search=author_search,
                )
                verdict = classify(citation, bundle, config)
                combos += 1
                if verdict.status is VerdictStatus.HALLUCINATED:
                    checked_hallucinated += 1
                    assert verdict.primary is not None
                    assert verdict.secondary is not None
                    assert verdict.primary is not verdict.secondary
        assert combos >= 500
        assert checked_hallucinated > 0


def test_criterion_5_full_outage(tmp_path, capsys):
    with criterion(
        5, "20-citation bibliography under total provider outage: 20 unverifiable, exit 2"
    ):
        out = tmp_path / "outage.json"
        code = main(
            [
                "verify",
                str(DATA / "outage20.bib"),
                "--offline",
                "--fixtures",
                str(DATA / "fixtures_offline_empty.json"),
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        report = json.loads(out.read_text(encoding="utf-8"))
        assert code == EXIT_UNVERIFIABLE
        assert report["n_citations"] == 20
        assert report["summary"]["unverifiable"] == 20
        assert report["summary"]["hallucinated"] == 0
        assert all(v["status"] == "unverifiable" for v in report["verdicts"])


def test_criterion_6_edit_distance_oracle():
    with criterion(
        6,
        "edit-distance component agrees with a full-DP oracle on 1,000 random"
        " pairs (<=40 chars) within 1e-9, in <5s",
    ):
        rng = random.Random(20260822)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 -"
        pairs = [
            (
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 41))),
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 41))),
            )
            for _ in range(1000)
        ]
        start = time.monotonic()
        for a, b in pairs:
            expected = edit_distance_matrix(a, b)
            actual = levenshtein(a, b)
            assert actual == expected
            if a or b:
                component = 1.0 - actual / max(len(a), len(b))
            else:
                component = 1.0
            assert abs(component - edit_similarity(a, b)) < FLOAT_TOLERANCE
        elapsed = time.monotonic() - start
        assert elapsed < EDIT_TIME_LIMIT


def test_criterion_7_identifier_grammar():
    with criterion(
        7,
        "10,000 generated identifiers accepted, grammar-breaking mutations"
        " rejected, XXXX patterns always placeholders",
    ):
        rng = random.Random(20260822)

        for _ in range(5000):
            yymm = f"{rng.randrange(0, 10000):04d}"
            number = "".join(
                rng.choice("0123456789") for _ in range(rng.choice((4, 5)))
            )
            version = f"v{rng.randrange(1, 12)}" if rng.random() < 0.5 else ""
            value = f"{yymm}.{number}{version}"
            assert make_identifier(IdentifierKind.ARXIV, value).syntactically_valid
            mutated = value.replace(".", "Q", 1)
            assert not make_identifier(
                IdentifierKind.ARXIV, mutated
            ).syntactically_valid

        # letters that could spell placeholder fragments (x, n, o) are
        # excluded so no generated suffix collides with that screen
        suffix_alphabet = "abcdefghijklmpqrstuvwyz0123456789.-_;()"
        for _ in range(5000):
            registrant = str(rng.randrange(1000, 1_000_000_000))
            suffix = "".join(
                rng.choice(suffix_alphabet)
                for _ in range(rng.randrange(1, 21))
            )
            value = f"10.{registrant}/{suffix}"
            assert make_identifier(IdentifierKind.DOI, value).syntactically_valid
            mutated = value.replace("/", "Q", 1)
            assert not make_identifier(
                IdentifierKind.DOI, mutated
            ).syntactically_valid

        placeholder_values = [
            ("XXXX.XXXXX", IdentifierKind.ARXIV),
            ("xxxx.12345", IdentifierKind.ARXIV),
            ("2107.XXXXX", IdentifierKind.ARXIV),
            ("arXiv:XXXX.XXXXX", IdentifierKind.ARXIV),
            ("10.XXXX/abc", IdentifierKind.DOI),
            ("NNNN", IdentifierKind.ARXIV),
        ]
        for value, kind in placeholder_values:
            ident = make_identifier(kind, value)
            assert not ident.syntactically_valid
            assert ident.syntax is IdentifierSyntax.PLACEHOLDER


def test_criterion_8_rate_limited_concurrency():
    with criterion(
        8,
        "8-way concurrent batch against a rate-limited local stub stays at or"
        " below 11 lookups in any 1s window",
    ):
        timestamps: list[float] = []

        class StubProvider:
            name = "stub"
            config = ProviderConfig(name="stub", rate_limit=10.0)

            def lookup_doi(self, doi: str) -> LookupOutcome:
                timestamps.append(time.monotonic())
                return LookupOutcome.not_found()

        citations = [
            make_citation(
                key=f"c{i}",
                authors=(),
                title="",
                year=None,
                identifiers=(
                    make_identifier(IdentifierKind.DOI, f"10.1000/stub.{i}"),
                ),
            )
            for i in range(30)
        ]
        resolver = Resolver(providers=[StubProvider()])
        config = ClassifierConfig(vocab=load_packaged_vocab())
        verdicts = classify_batch(citations, resolver, config, jobs=8)

        assert len(verdicts) == 30
        assert len(timestamps) == 30
        ordered = sorted(timestamps)
        for i, start in enumerate(ordered):
            in_window = sum(1 for t in ordered[i:] if t - start < 1.0)
            assert in_window <= WINDOW_LIMIT
