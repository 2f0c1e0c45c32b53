"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py        (from the root of a checkout)

They check that each real citeaudit client parses what the stub serves, that
the generator is deterministic per seed, and that every unmutated citation
of a generated bibliography verifies through the real CLI.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from generate import write_workload  # noqa: E402
from run import Bench, score_report  # noqa: E402
from stub import StubServer, StubState  # noqa: E402

DATA = ROOT / "src" / "citeaudit" / "data"


class _TempDir(unittest.TestCase):
    def setUp(self) -> None:
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class GeneratorTest(_TempDir):
    def test_same_seed_same_bytes(self) -> None:
        for kind in ("offline", "stub"):
            a = write_workload(kind, 7, DATA, self.tmp / f"{kind}-a")
            b = write_workload(kind, 7, DATA, self.tmp / f"{kind}-b")
            c = write_workload(kind, 8, DATA, self.tmp / f"{kind}-c")
            for name in a:
                self.assertEqual(a[name].read_bytes(), b[name].read_bytes(), f"{kind}/{name}")
            self.assertNotEqual(a["bibliography"].read_bytes(), c["bibliography"].read_bytes())


class StubClientTest(_TempDir):
    def setUp(self) -> None:
        super().setUp()
        files = write_workload("stub", 3, DATA, self.tmp)
        self.document = json.loads(files["universe"].read_text(encoding="utf-8"))
        self.server = StubServer(StubState(self.document, latency_s=0.0)).__enter__()
        self.addCleanup(self.server.__exit__, None, None, None)

    def _client(self, klass, name: str):
        from citeaudit import ProviderConfig

        return klass(ProviderConfig(name=name, base_endpoint=self.server.endpoints()[name]))

    def test_each_client_finds_a_stub_record(self) -> None:
        from citeaudit import ArxivClient, CrossrefClient, LookupStatus, OpenAlexClient

        down = set(self.document["down"]["doi"]) | set(self.document["down"]["title"])
        record = next(
            r for r in self.document["records"]
            if r["arxiv"] and r["doi"].lower() not in down
            and not {f"doi:{r['doi'].lower()}", f"arxiv:{r['arxiv']}"} & set(self.document["flaky"])
        )
        surname = record["authors"][0].split()[-1]

        doi = self._client(CrossrefClient, "crossref").lookup_doi(record["doi"])
        self.assertIs(doi.status, LookupStatus.FOUND)
        self.assertEqual(doi.record.title, record["title"])
        self.assertEqual(doi.record.year, record["year"])
        self.assertEqual(doi.record.pages, record["pages"])
        self.assertEqual(
            [a.surname for a in doi.record.authors],
            [a.split()[-1].lower() for a in record["authors"]],
        )

        arxiv = self._client(ArxivClient, "arxiv").lookup_arxiv(record["arxiv"])
        self.assertIs(arxiv.status, LookupStatus.FOUND)
        self.assertEqual((arxiv.record.title, arxiv.record.year), (record["title"], record["year"]))

        openalex = self._client(OpenAlexClient, "openalex")
        by_title = openalex.search_title(record["title"])
        self.assertIsNone(by_title.cause)
        self.assertEqual(len(by_title.records), 5)
        self.assertEqual(by_title.records[0].title, record["title"])
        by_author = openalex.search_author_year(surname.lower(), record["year"])
        self.assertIsNone(by_author.cause)
        self.assertEqual(len(by_author.records), 10)
        self.assertIn(record["title"], [r.title for r in by_author.records])

        missing = self._client(CrossrefClient, "crossref").lookup_doi("10.1000/not.in.universe")
        self.assertIs(missing.status, LookupStatus.NOT_FOUND)

    def test_down_keys_fail_and_flaky_keys_fail_once(self) -> None:
        from citeaudit import CrossrefClient, LookupStatus

        crossref = self._client(CrossrefClient, "crossref")
        down_doi = self.document["down"]["doi"][0]
        for _ in range(2):
            self.assertIs(crossref.lookup_doi(down_doi).status, LookupStatus.UNAVAILABLE)
        flaky_doi = next(k for k in self.document["flaky"] if k.startswith("doi:"))[4:]
        first = crossref.lookup_doi(flaky_doi)
        self.assertIs(first.status, LookupStatus.UNAVAILABLE)
        self.assertIn(first.cause, ("rate_limited", "http_5xx"))
        self.assertIs(crossref.lookup_doi(flaky_doi).status, LookupStatus.FOUND)
        counters = self.server.state.counters()
        self.assertEqual(counters["requests"], 4)
        self.assertEqual(counters["outage_requests"], 4)
        self.server.state.reset()
        self.assertIs(crossref.lookup_doi(flaky_doi).status, LookupStatus.UNAVAILABLE)


class UnmutatedCitationsVerifyTest(_TempDir):
    """Through the real CLI: every unchanged citation verifies, on each
    workload kind, and every label is met."""

    def _check(self, workload: str) -> None:
        bench = Bench(ROOT, self.tmp, workload, seed=5)
        try:
            self.assertEqual(bench.prepare(), [])
            score = score_report(bench.reference, bench.labels)
        finally:
            bench.close()
        report = json.loads(bench.reference)
        unchanged = [
            entry for entry, label in zip(report["verdicts"], bench.labels)
            if label["mutation"] == "unchanged"
        ]
        self.assertTrue(unchanged)
        self.assertEqual({e["status"] for e in unchanged}, {"verified"})
        self.assertEqual(score.failed, 0)
        self.assertEqual(score.status_ok, score.citations)
        self.assertEqual(score.primary_ok, score.hallucinated_labels)

    def test_offline(self) -> None:
        self._check("offline-mutations")

    def test_stub(self) -> None:
        self._check("stub-cold")


if __name__ == "__main__":
    unittest.main()
