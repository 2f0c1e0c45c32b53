"""Seeded generator of labelled bibliographies for the citeaudit benchmark.

From one seed it builds a record universe (titles from the packaged
``title_corpus.txt``, generated author names, venues, DOIs and arXiv ids),
then derives citations by the mutations the verdict taxonomy names:

    unchanged                         -> verified
    author swap                       -> hallucinated, primary PAC
    another paper's identifier        -> hallucinated, primary IH
    template tokens                   -> hallucinated, primary PH
    vocab-built title, real author    -> hallucinated, primary SH
    random tokens                     -> hallucinated, primary TF
    every provider down for the work  -> unverifiable (stub workload only)

How many citations are hallucinated, and with which code, follows the
packaged coded corpus (``corpus.csv``); see paper_kinds. It writes the
bibliography, the labels, the closed-world fixture file (offline workload)
and the stub universe (stub workload). Stdlib only, and
it never imports citeaudit: the program sees only the files written here.
The same seed and parameters always give byte-identical files.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

TITLE_PAGE = 5    # results per title search, as OpenAlexClient requests
AUTHOR_PAGE = 10  # results per author-year search, as OpenAlexClient requests
UNIVERSE_SIZE = 900

_WORD_RE = re.compile(r"[a-z0-9]+")
# citeaudit.matching.STOPWORDS: tokens that never count as title content.
_STOPWORDS = frozenset(
    "a an and as at by for from in into is it its of on or that the to via with"
    " proceedings conference journal international".split()
)
# Tokens citeaudit treats as placeholders or surname particles; a generated
# surname must be neither.
_RESERVED = frozenset(
    "firstname lastname others anonymous author tbd van von de der den del"
    " della di da la le du dos das ter ten op bin ibn al el st".split()
)
_GIVEN = (
    "Anna Bruno Clara Dmitri Elena Felix Greta Hugo Irene Jonas Karin Lukas"
    " Marta Nils Olga Pavel Rosa Sven Tomas Ulla Viktor Wanda Yara Zeno".split()
)
_VENUE_HEADS = ("Journal of", "Transactions on", "Proceedings of", "Letters in")
_VENUE_TOPICS = (
    "Applied Learning Systems", "Machine Perception", "Statistical Computing",
    "Language Technology", "Robotics Research", "Data Engineering",
    "Neural Computation", "Information Retrieval", "Knowledge Discovery",
    "Computational Vision",
)
_CONS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def normalize_title(title: str) -> str:
    """citeaudit's title normal form for ASCII input: casefold, keep word runs."""
    return " ".join(_WORD_RE.findall(title.casefold()))


def content_tokens(title: str) -> frozenset[str]:
    return frozenset(
        t for t in _WORD_RE.findall(title.casefold())
        if len(t) >= 2 and t not in _STOPWORDS
    )


def _stable_rank(*parts) -> int:
    digest = hashlib.blake2b("\x1f".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass
class Record:
    """One work in the universe, as every provider knows it."""

    rid: int
    title: str
    authors: list[str]          # "Given Surname"
    venue: str
    year: int
    pages: str
    doi: str
    arxiv: str | None = None

    @property
    def surnames(self) -> list[str]:
        return [a.split()[-1].lower() for a in self.authors]

    def document(self) -> dict:
        """All fields but rid, as the stub universe file stores them."""
        return {k: v for k, v in asdict(self).items() if k != "rid"}

    def fixture_record(self) -> dict:
        identifiers = [{"kind": "doi", "value": self.doi}]
        if self.arxiv:
            identifiers.append({"kind": "arxiv", "value": self.arxiv})
        return {
            "title": self.title,
            "authors": list(self.authors),
            "venue": self.venue,
            "year": self.year,
            "pages": self.pages,
            "identifiers": identifiers,
        }


@dataclass
class Citation:
    """One generated reference plus the verdict it should receive."""

    key: str
    mutation: str
    status: str                 # verified | hallucinated | unverifiable
    primary: str | None
    authors: list[str]          # claimed "Given Surname" strings
    title: str
    venue: str
    year: int
    pages: str | None = None
    doi: str | None = None
    arxiv: str | None = None
    placeholder_authors: bool = False
    apa: bool = False
    rid: int | None = None      # universe record behind the citation, if any

    def label(self) -> dict:
        return {
            "key": self.key,
            "mutation": self.mutation,
            "status": self.status,
            "primary": self.primary,
        }

    def search_surname(self) -> str | None:
        if self.placeholder_authors or not self.authors:
            return None
        return self.authors[0].split()[-1].lower()


@dataclass
class Universe:
    records: list[Record]
    by_doi: dict[str, Record] = field(default_factory=dict)
    by_arxiv: dict[str, Record] = field(default_factory=dict)
    _index: dict[str, list[int]] = field(default_factory=dict)
    _tokens: list[frozenset[str]] = field(default_factory=list)
    _by_year: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rec in self.records:
            self.by_doi[rec.doi.lower()] = rec
            if rec.arxiv:
                self.by_arxiv[rec.arxiv.lower()] = rec
            toks = content_tokens(rec.title)
            self._tokens.append(toks)
            for tok in toks:
                self._index.setdefault(tok, []).append(rec.rid)
            self._by_year.setdefault(rec.year, []).append(rec.rid)

    def search_title(self, query: str) -> list[Record]:
        """Top TITLE_PAGE records by content-token Jaccard with the query.

        Like a relevance-ranked search engine it always fills the page: ties
        and records sharing no token are ordered by a hash of the query."""
        q = content_tokens(query)
        norm = normalize_title(query)
        overlap: dict[int, int] = {}
        for tok in q:
            for rid in self._index.get(tok, ()):
                overlap[rid] = overlap.get(rid, 0) + 1
        ranked = sorted(
            overlap,
            key=lambda rid: (
                -overlap[rid] / len(q | self._tokens[rid]),
                _stable_rank(norm, rid),
            ),
        )[:TITLE_PAGE]
        if len(ranked) < TITLE_PAGE:
            seen = set(ranked)
            filler = sorted(
                (r.rid for r in self.records if r.rid not in seen),
                key=lambda rid: _stable_rank(norm, rid),
            )
            ranked.extend(filler[: TITLE_PAGE - len(ranked)])
        return [self.records[rid] for rid in ranked]

    def search_author_year(self, surname: str, year: int) -> list[Record]:
        """Records from that year with that author surname first, then other
        records from that year (the name search is fuzzy), AUTHOR_PAGE in all."""
        pool = self._by_year.get(year, [])
        exact = [rid for rid in pool if surname in self.records[rid].surnames]
        rest = sorted(
            (rid for rid in pool if surname not in self.records[rid].surnames),
            key=lambda rid: _stable_rank(surname, year, rid),
        )
        return [self.records[rid] for rid in (exact + rest)[:AUTHOR_PAGE]]


def _load_lines(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


class _Names:
    """Distinct pronounceable surnames, drawn without replacement."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[str] = set()

    def surname(self) -> str:
        while True:
            syllables = self._rng.randint(2, 3)
            word = "".join(
                self._rng.choice(_CONS) + self._rng.choice(_VOWELS)
                for _ in range(syllables)
            ) + self._rng.choice(_CONS)
            if word not in self._used and word not in _RESERVED:
                self._used.add(word)
                return word.capitalize()

    def pseudo_word(self) -> str:
        return self.surname().lower()


def _doi(rng: random.Random, year: int, serial: int) -> str:
    registrant = rng.randint(1000, 99999)
    return f"10.{registrant}/bench.{year}.{serial:05d}"


def _arxiv(year: int, serial: int) -> str:
    month = serial % 12 + 1
    return f"{year % 100:02d}{month:02d}.{10000 + serial:05d}"


def build_universe(rng: random.Random, titles: list[str], size: int) -> tuple[Universe, _Names]:
    names = _Names(rng)
    surnames = [names.surname() for _ in range(max(60, size // 3))]
    chosen = rng.sample(titles, size)
    records = []
    for rid, title in enumerate(chosen):
        year = rng.randint(2008, 2023)
        n_auth = rng.randint(2, 4)
        authors = [
            f"{rng.choice(_GIVEN)} {s}" for s in rng.sample(surnames, n_auth)
        ]
        first = rng.randint(1, 900)
        records.append(
            Record(
                rid=rid,
                title=title[0].upper() + title[1:],
                authors=authors,
                venue=f"{rng.choice(_VENUE_HEADS)} {rng.choice(_VENUE_TOPICS)}",
                year=year,
                pages=f"{first}-{first + rng.randint(5, 30)}",
                doi=_doi(rng, year, rid),
                arxiv=_arxiv(year, rid) if rng.random() < 0.4 else None,
            )
        )
    return Universe(records), names


# --- mutations --------------------------------------------------------------


def _initial(name: str) -> str:
    given, surname = name.rsplit(" ", 1)
    return f"{given[0]}. {surname}"


def _vocab_title(rng: random.Random, vocab: list[str]) -> str:
    words = rng.sample(vocab, rng.randint(4, 6))
    joiner = rng.choice(("for", "with", "of", "in"))
    cut = rng.randint(2, len(words) - 1)
    text = " ".join(words[:cut]) + f" {joiner} " + " ".join(words[cut:])
    return text[0].upper() + text[1:]


def _random_title(rng: random.Random, names: _Names) -> str:
    text = " ".join(names.pseudo_word() for _ in range(rng.randint(4, 6)))
    return text[0].upper() + text[1:]


class _Mutator:
    def __init__(self, seed: int, data_dir: Path):
        self.rng = random.Random(seed)
        titles = sorted(set(_load_lines(data_dir / "title_corpus.txt")))
        self.vocab = _load_lines(data_dir / "vocab.txt")
        self.u, self.names = build_universe(self.rng, titles, UNIVERSE_SIZE)
        # Records already used for a citation; fresh draws avoid them so that
        # only deliberately shared references share lookups.
        self.used: set[int] = set()

    def fresh(self, need_arxiv: bool = False) -> Record:
        while True:
            rec = self.rng.choice(self.u.records)
            if rec.rid in self.used or (need_arxiv and not rec.arxiv):
                continue
            self.used.add(rec.rid)
            return rec

    def fake_authors(self, n: int) -> list[str]:
        return [f"{self.rng.choice(_GIVEN)} {self.names.surname()}" for _ in range(n)]

    def make(self, kind: str, ident: str, key: str) -> Citation:
        rng = self.rng
        if kind in ("verified", "outage", "flaky"):
            rec = self.fresh(need_arxiv=ident == "arxiv")
            return self.verified(rec, ident, key, kind)
        if kind == "PAC":
            rec = self.fresh()
            donor = self.fresh()
            return Citation(key, "author_swap", "hallucinated", "PAC", list(donor.authors),
                            rec.title, rec.venue, rec.year, rec.pages, rid=rec.rid)
        if kind == "IH":
            other = self.fresh(need_arxiv=ident == "arxiv")
            return Citation(key, "identifier_hijack", "hallucinated", "IH",
                            self.fake_authors(2), _vocab_title(rng, self.vocab),
                            other.venue, other.year,
                            doi=other.doi if ident == "doi" else None,
                            arxiv=other.arxiv if ident == "arxiv" else None)
        if kind == "PH":
            rec = self.fresh()
            return Citation(key, "template_tokens", "hallucinated", "PH",
                            ["Firstname Lastname", "Others"], rec.title,
                            "arXiv preprint", rec.year, arxiv="XXXX.XXXXX",
                            placeholder_authors=True)
        if kind == "SH":
            rec = self.fresh()
            real = rec.authors[0]
            return Citation(key, "vocab_title_real_author", "hallucinated", "SH",
                            [real, *self.fake_authors(1)], _vocab_title(rng, self.vocab),
                            rec.venue, rec.year)
        if kind == "TF":
            return Citation(key, "random_tokens", "hallucinated", "TF",
                            self.fake_authors(2), _random_title(rng, self.names),
                            f"Journal of {self.names.surname()} Studies",
                            rng.randint(2008, 2023))
        raise ValueError(f"unknown mutation {kind!r}")

    def verified(self, rec: Record, ident: str, key: str, kind: str = "verified") -> Citation:
        status = "unverifiable" if kind == "outage" else "verified"
        mutation = {"verified": "unchanged", "outage": "outage", "flaky": "flaky"}[kind]
        return Citation(key, mutation, status, None, list(rec.authors), rec.title,
                        rec.venue, rec.year, rec.pages,
                        doi=rec.doi if ident == "doi" else None,
                        arxiv=rec.arxiv if ident == "arxiv" else None, rid=rec.rid)


# --- rendering --------------------------------------------------------------


def _plaintext_entry(n: int, c: Citation) -> str:
    if c.placeholder_authors:
        authors = " and ".join(c.authors)
    elif c.apa:
        parts = [f"{a.split()[-1]}, {a[0]}." for a in c.authors]
        authors = ", ".join(parts[:-1]) + (", & " if len(parts) > 1 else "") + parts[-1]
    else:
        parts = [_initial(a) for a in c.authors]
        authors = " and ".join(parts) if len(parts) <= 2 else ", ".join(parts[:-1]) + ", and " + parts[-1]
    ids = []
    if c.doi:
        ids.append(f"doi:{c.doi}")
    if c.arxiv:
        ids.append(f"arXiv:{c.arxiv}")
    tail = f" {' '.join(ids)}" if ids else ""
    pages = f", {c.pages}" if c.pages else ""
    if c.apa and not c.placeholder_authors:
        return f"[{n}] {authors} ({c.year}). {c.title}. {c.venue}{pages}.{tail}"
    return f"[{n}] {authors}. {c.title}. {c.venue}{pages}, {c.year}.{tail}"


def _bibtex_entry(c: Citation) -> str:
    if c.placeholder_authors:
        authors = " and ".join(c.authors)
    else:
        authors = " and ".join(f"{a.split()[-1]}, {a.rsplit(' ', 1)[0]}" for a in c.authors)
    lines = [
        f"@article{{{c.key},",
        f"  author = {{{authors}}},",
        f"  title = {{{c.title}}},",
        f"  journal = {{{c.venue}}},",
        f"  year = {{{c.year}}},",
    ]
    if c.pages:
        lines.append(f"  pages = {{{c.pages.replace('-', '--')}}},")
    if c.doi:
        lines.append(f"  doi = {{{c.doi}}},")
    if c.arxiv:
        lines.append(f"  eprint = {{{c.arxiv}}},")
        lines.append("  archiveprefix = {arXiv},")
    lines.append("}")
    return "\n".join(lines)


# --- workloads ----------------------------------------------------------------

# Each bibliography concatenates reference lists of REFS_PER_PAPER entries.
# How many of them are hallucinated, and with which primary code, comes from
# the coded corpus citeaudit ships (data/corpus.csv, described in
# data/PROVENANCE.txt): its mean of flagged references per paper (1.89) and
# its primary-code counts (TF 66 / PAC 27 / IH 4 / PH 2 / SH 1). Every
# mutation below still gets at least one citation, so each code's accuracy
# is checked. The corpus records flagged references only, so the remaining
# numbers are chosen, not measured: the list length, the number of papers,
# the identifiers that verified references cite, the popular references
# every stub paper shares, and the fault keys (which are fault injection,
# not traffic).
REFS_PER_PAPER = 29
# Offline, the cost of one citation is heavy-tailed (edit distance grows
# with the length of both titles), so the list is long enough that one
# seed's draw of titles moves the total little. Online, the stub's rate
# limits set the run time, and four papers are enough to share references.
OFFLINE_PAPERS = 8
STUB_PAPERS = 4
# Hallucinated mutations by primary code: the identifier each variant cites.
HALLUCINATED = {"TF": (None,), "PAC": (None,), "IH": ("doi", "arxiv"), "PH": (None,), "SH": (None,)}
VERIFIED_IDENTS = {"doi": 3, "arxiv": 2, None: 3}    # weights, not counts
POPULAR = ("doi",) * 5 + ("arxiv",) * 3              # stub: cited by every paper
FAULTS = (("flaky", "doi"), ("flaky", "arxiv"), ("outage", "doi"), ("outage", None))


def apportion(weights: dict, total: int, floor: dict) -> dict:
    """Counts that sum to total, at least floor each, and otherwise as close
    to the weights' shares as whole numbers allow (each extra unit goes to
    the key furthest below its share; ties go to the earlier key)."""
    counts = dict(floor)
    whole = sum(weights.values())
    while sum(counts.values()) < total:
        key = max(counts, key=lambda k: weights.get(k, 0) * total / whole - counts[k])
        counts[key] += 1
    return counts


def corpus_profile(data_dir: Path) -> tuple[dict[str, int], float]:
    """Primary-code counts and flagged references per paper of corpus.csv."""
    with (data_dir / "corpus.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return Counter(r["primary"] for r in rows), len(rows) / len({r["paper_id"] for r in rows})


def paper_kinds(
    data_dir: Path, papers: int, shared: int = 0, faults=()
) -> list[list[tuple[str, str | None]]]:
    """Per paper, the (mutation, identifier) of each reference of its own,
    beside the `shared` references every paper cites."""
    primaries, flagged_per_paper = corpus_profile(data_dir)
    floor = {code: len(idents) for code, idents in HALLUCINATED.items()}
    total = max(sum(floor.values()), round(flagged_per_paper * papers))
    flagged = [
        (code, HALLUCINATED[code][i % len(HALLUCINATED[code])])
        for code, n in apportion(primaries, total, floor).items()
        for i in range(n)
    ]
    lists = []
    for p in range(papers):
        own = flagged[p::papers] + list(faults)
        n_verified = REFS_PER_PAPER - shared - len(own)
        idents = apportion(VERIFIED_IDENTS, n_verified, dict.fromkeys(VERIFIED_IDENTS, 0))
        lists.append(own + [("verified", i) for i, n in idents.items() for _ in range(n)])
    return lists


@dataclass
class Workload:
    citations: list[Citation]
    universe: Universe
    down: dict = field(default_factory=dict)
    flaky: list[str] = field(default_factory=list)

    def labels(self) -> list[dict]:
        return [c.label() for c in self.citations]


def offline_workload(seed: int, data_dir: Path) -> Workload:
    mut = _Mutator(seed, data_dir)
    kinds = [kind for paper in paper_kinds(data_dir, OFFLINE_PAPERS) for kind in paper]
    mut.rng.shuffle(kinds)
    citations = []
    for n, (kind, ident) in enumerate(kinds, start=1):
        c = mut.make(kind, ident, str(n))
        c.apa = n % 3 == 0
        citations.append(c)
    return Workload(citations, mut.u)


def stub_workload(seed: int, data_dir: Path) -> Workload:
    mut = _Mutator(seed, data_dir)
    rng, universe, names = mut.rng, mut.u, mut.names
    popular = [mut.fresh(need_arxiv=ident == "arxiv") for ident in POPULAR]
    citations: list[Citation] = []
    for p, own in enumerate(paper_kinds(data_dir, STUB_PAPERS, len(POPULAR), FAULTS), start=1):
        slots = [("popular", i) for i in range(len(popular))] + own
        rng.shuffle(slots)
        for r, (kind, ident) in enumerate(slots, start=1):
            key = f"p{p}r{r}"
            if kind == "popular":
                citations.append(mut.verified(popular[ident], POPULAR[ident], key))
            else:
                citations.append(mut.make(kind, ident, key))
    down = {"doi": [], "arxiv": [], "title": [], "author": []}
    flaky = []
    for c in citations:
        if c.mutation == "outage":
            # Only this citation may query these keys, so its work's first
            # author gets a surname no other record carries.
            unique = f"{rng.choice(_GIVEN)} {names.surname()}"
            universe.records[c.rid].authors[0] = unique
            c.authors[0] = unique
            if c.doi:
                down["doi"].append(c.doi.lower())
            down["title"].append(normalize_title(c.title))
            down["author"].append([c.search_surname(), c.year])
        elif c.mutation == "flaky":
            flaky.append(f"doi:{c.doi.lower()}" if c.doi else f"arxiv:{c.arxiv.lower()}")
    return Workload(citations, universe, down, flaky)


def fixture_document(work: Workload) -> dict:
    """Closed-world fixture: every universe identifier, plus the page of
    results each title and author-year query of the bibliography returns."""
    outcomes: dict[str, dict] = {}
    for rec in work.universe.records:
        outcomes[f"doi:{rec.doi.lower()}"] = {"status": "found", "record": rec.fixture_record()}
        if rec.arxiv:
            outcomes[f"arxiv:{rec.arxiv.lower()}"] = {"status": "found", "record": rec.fixture_record()}
    for c in work.citations:
        outcomes[f"title:{normalize_title(c.title)}"] = {
            "records": [r.fixture_record() for r in work.universe.search_title(c.title)]
        }
        surname = c.search_surname()
        if surname:
            outcomes[f"author:{surname}:{c.year}"] = {
                "records": [
                    r.fixture_record()
                    for r in work.universe.search_author_year(surname, c.year)
                ]
            }
    return {"closed_world": True, "outcomes": outcomes}


def stub_document(work: Workload) -> dict:
    return {
        "records": [r.document() for r in work.universe.records],
        "down": work.down,
        "flaky": work.flaky,
    }


def write_workload(kind: str, seed: int, data_dir: Path, out_dir: Path) -> dict:
    """Generate one workload's files into out_dir and return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "offline":
        work = offline_workload(seed, data_dir)
        bib = out_dir / "refs.txt"
        bib.write_text(
            "\n".join(_plaintext_entry(n, c) for n, c in enumerate(work.citations, 1)) + "\n",
            encoding="utf-8",
        )
        fixtures = out_dir / "fixtures.json"
        fixtures.write_text(json.dumps(fixture_document(work)), encoding="utf-8")
        paths = {"bibliography": bib, "fixtures": fixtures}
    else:
        work = stub_workload(seed, data_dir)
        bib = out_dir / "refs.bib"
        bib.write_text("\n\n".join(_bibtex_entry(c) for c in work.citations) + "\n", encoding="utf-8")
        universe = out_dir / "universe.json"
        universe.write_text(json.dumps(stub_document(work)), encoding="utf-8")
        paths = {"bibliography": bib, "universe": universe}
    labels = out_dir / "labels.json"
    labels.write_text(json.dumps(work.labels(), indent=1), encoding="utf-8")
    paths["labels"] = labels
    return paths
