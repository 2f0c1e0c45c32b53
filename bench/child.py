"""One fresh citeaudit process, driven through the library's public calls.

    python bench/child.py setup    --spec SPEC.json
    python bench/child.py pipeline --spec SPEC.json [--trace]

``setup`` makes the calls ``citeaudit verify`` makes before it parses
(import citeaudit.cli, then its _build_runtime: the packaged vocabulary,
providers, lookup cache and Resolver), prints ``ready`` and exits; the
parent times process start to that line.

``pipeline`` then runs what ``verify --format json`` runs: parse_file,
classify_batch, build_report and render_report. With ``--trace`` the tracer
in tracer.py wraps each layer's public entry points first. It writes the
JSON report and a metrics file named in the spec.

SPEC.json holds: bibliography, fixtures or config, cache, jobs, report and
metrics paths. citeaudit is imported from PYTHONPATH, as the CLI run is.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


def _timed_calls(fn, timings: dict, name: str):
    """fn, adding the seconds each call takes to timings[name]."""

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - t

    return timed


def build_runtime(spec: dict, timings: dict):
    """Import the CLI and build its runtime exactly as ``verify`` does, with
    citeaudit.cli._build_runtime. The fixture-file and cache loads inside it
    are timed on their own as well."""
    t = time.perf_counter()
    cli = importlib.import_module("citeaudit.cli")
    timings["cli.import_s"] = time.perf_counter() - t
    originals = {name: getattr(cli, name) for name in ("FixtureProvider", "LookupCache")}
    timings["cli.store_load_s"] = 0.0
    for name, klass in originals.items():
        setattr(cli, name, _timed_calls(klass, timings, "cli.store_load_s"))
    t = time.perf_counter()
    try:
        runtime = cli._build_runtime(
            bool(spec.get("fixtures")), spec.get("fixtures"), spec.get("cache"),
            spec.get("config"), None, {},
        )
    finally:
        for name, klass in originals.items():
            setattr(cli, name, klass)
    timings["cli.runtime_s"] = time.perf_counter() - t
    return runtime


def run_pipeline(spec: dict, resolver, config) -> dict:
    # citeaudit re-exports a function named classify that hides the module.
    parsing = importlib.import_module("citeaudit.parsing")
    classify = importlib.import_module("citeaudit.classify")
    report_mod = importlib.import_module("citeaudit.report")

    t = time.perf_counter()
    parsed = parsing.parse_file(spec["bibliography"])
    verdicts = classify.classify_batch(parsed.citations, resolver, config, jobs=spec["jobs"])
    report = report_mod.build_report(spec["bibliography"], parsed.citations, verdicts)
    text = report_mod.render_report(report, "json")
    Path(spec["report"]).write_text(text, encoding="utf-8")
    return {"pipeline_s": time.perf_counter() - t}


def main(argv: list[str]) -> int:
    mode = argv[0]
    spec = json.loads(Path(argv[argv.index("--spec") + 1]).read_text(encoding="utf-8"))
    timings: dict = {}
    resolver, config = build_runtime(spec, timings)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer  # noqa: PLC0415

        tracer = Tracer()
        tracer.install()
    timings.update(run_pipeline(spec, resolver, config))
    out = {"timings": timings}
    if tracer is not None:
        tracer.uninstall()
        spans_path = Path(spec["metrics"]).with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        out["layers"] = tracer.summary()
    Path(spec["metrics"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
