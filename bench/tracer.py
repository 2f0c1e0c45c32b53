"""Outside-in tracer: spans around the public entry points of citeaudit's modules.

Nothing under src/ changes. install() rebinds module and class attributes to
timing wrappers and uninstall() restores them. Functions that other modules
import by name (profile_match, title_plausibility, fold_diacritics) are
rebound in every importing module, because rebinding only the defining
module would miss those call sites.

Each span records its name, id, parent id, thread, start, end, self time and
the source_key of the citation it serves: resolve and classify take the key
from their citation argument and every nested span inherits it. Self time is
the span's duration minus that of its direct children on the same thread.
Spans stay in memory until write().
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

PROVIDERS = ("crossref", "arxiv", "openalex", "fixture")
STATUSES = ("verified", "hallucinated", "unverifiable")


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def _unavailable(outcome) -> bool:
    status = getattr(outcome, "status", None)
    if status is not None:
        return status.value == "unavailable"
    return bool(getattr(outcome, "failed", False))


class Tracer:
    def __init__(self) -> None:
        # (id, parent_id, name, key, thread, start, end, self_s, tag)
        self.spans: list[tuple] = []
        self.fold_calls = 0
        self._fold_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, key_of=None, tag_of=None):
        """Wrap fn so each call records one span.

        key_of(args) names the citation the call serves; tag_of(args, result)
        returns a small JSON value kept with the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            key = key_of(args) if key_of else (parent[2] if parent else None)
            frame = [next(tracer._ids), 0.0, key]
            stack.append(frame)
            start = perf_counter()
            tag = "error"
            try:
                result = fn(*args, **kwargs)
                tag = tag_of(args, result) if tag_of else None
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((
                    frame[0], parent[0] if parent else 0, name, key,
                    threading.get_ident(), start, end, end - start - frame[1], tag,
                ))

        return traced

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._fold_lock:
                tracer.fold_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    # --- install --------------------------------------------------------------

    def install(self) -> None:
        mod = {
            name: importlib.import_module(f"citeaudit.{name}")
            for name in ("parsing", "resolve", "matching", "classify", "model", "report")
        }
        res, mat, cls = mod["resolve"], mod["matching"], mod["classify"]
        citation_key = lambda args: args[0].source_key  # noqa: E731

        self._patch([mod["parsing"]], "parse_file", self.span(
            "parsing", mod["parsing"].parse_file,
            tag_of=lambda a, r: [len(r.citations), len(r.warnings)],
        ))
        self._patch([res.Resolver], "resolve_citation", self.span(
            "resolve", res.Resolver.resolve_citation,
            key_of=lambda args: args[1].source_key,
            tag_of=lambda a, r: r.short_circuit,
        ))
        provider_ops = {
            res.CrossrefClient: ("lookup_doi",),
            res.ArxivClient: ("lookup_arxiv",),
            res.OpenAlexClient: ("search_title", "search_author_year"),
            res.FixtureProvider: ("lookup_doi", "lookup_arxiv", "search_title", "search_author_year"),
        }
        for klass, ops in provider_ops.items():
            for op in ops:
                self._patch([klass], op, self.span(
                    "provider", getattr(klass, op),
                    tag_of=lambda a, r: [a[0].name, _unavailable(r)],
                ))
        self._patch([res.LookupCache], "get", self.span(
            "cache.get", res.LookupCache.get, tag_of=lambda a, r: r is not None,
        ))
        self._patch([res.LookupCache], "put", self.span("cache.put", res.LookupCache.put))

        self._patch([mat, cls, res], "profile_match", self.span("matching.profile", mat.profile_match))
        self._patch([mat], "levenshtein", self.span("matching.levenshtein", mat.levenshtein))
        self._patch([mat, cls], "title_plausibility", self.span(
            "matching.plausibility", mat.title_plausibility,
        ))
        self._patch([mod["model"], mat], "fold_diacritics", self._counted(mod["model"].fold_diacritics))

        self._patch([cls], "classify", self.span(
            "classify", cls.classify, key_of=citation_key, tag_of=lambda a, r: r.status.value,
        ))
        for fn in ("build_report", "render_report"):
            self._patch([mod["report"]], fn, self.span("report", getattr(mod["report"], fn)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        fields = ("id", "parent", "name", "key", "thread", "start", "end", "self_s", "tag")
        with Path(path).open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics from the recorded spans."""
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[2], []).append(span)

        def total(name: str) -> float:
            return sum(s[6] - s[5] for s in by_name.get(name, ()))

        def self_total(name: str) -> float:
            return sum(s[7] for s in by_name.get(name, ()))

        def calls(name: str) -> int:
            return len(by_name.get(name, ()))

        parsing = by_name.get("parsing", [])
        n_citations = sum(s[8][0] for s in parsing if s[8] != "error")
        resolve_ms = sorted((s[6] - s[5]) * 1000 for s in by_name.get("resolve", ()))
        gets = by_name.get("cache.get", [])
        hits = sum(1 for s in gets if s[8] is True)
        out = {
            "parsing.s": total("parsing"),
            "parsing.citations": n_citations,
            "parsing.warnings": sum(s[8][1] for s in parsing if s[8] != "error"),
            "resolve.calls": calls("resolve"),
            "resolve.s": total("resolve"),
            "resolve.self_s": self_total("resolve"),
            "resolve.latency_p50_ms": _percentile(resolve_ms, 0.50),
            "resolve.latency_p99_ms": _percentile(resolve_ms, 0.99),
            "resolve.short_circuits": sum(1 for s in by_name.get("resolve", ()) if s[8] is True),
            "provider.s": total("provider"),
            "cache.gets": len(gets),
            "cache.hits": hits,
            "cache.hit_ratio": hits / len(gets) if gets else 0.0,
            "cache.puts": calls("cache.put"),
            "matching.profile_calls": calls("matching.profile"),
            "matching.profiles_per_citation": (
                calls("matching.profile") / n_citations if n_citations else 0.0
            ),
            "matching.profile_s": total("matching.profile"),
            "matching.levenshtein_calls": calls("matching.levenshtein"),
            "matching.levenshtein_s": total("matching.levenshtein"),
            "matching.fold_calls": self.fold_calls,
            "matching.plausibility_s": total("matching.plausibility"),
            "classify.calls": calls("classify"),
            "classify.s": total("classify"),
            "classify.self_s": self_total("classify"),
            "report.s": total("report"),
        }
        for name in PROVIDERS:
            spans = [s for s in by_name.get("provider", ()) if s[8] != "error" and s[8][0] == name]
            out[f"provider.{name}.ops"] = len(spans)
            out[f"provider.{name}.unavailable"] = sum(1 for s in spans if s[8][1])
        for status in STATUSES:
            out[f"classify.verdicts.{status}"] = sum(
                1 for s in by_name.get("classify", ()) if s[8] == status
            )
        return out
