"""What the benchmark relies on in src/, checked here and not only in a
benchmark run: bench/child.py builds the CLI's runtime through
citeaudit.cli._build_runtime, bench/tracer.py patches citeaudit's modules by
attribute name, and the fixture files bench/generate.py writes, like the
packaged one, are read by the provider's decoder."""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from citeaudit.cli import main
from citeaudit.resolve import _decode

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "citeaudit" / "data"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks a class's module up in sys.modules while it runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_target_and_restores_it():
    tracer = _bench_module("tracer").Tracer()
    try:
        tracer.install()  # raises AttributeError on a name src/ lacks
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


@pytest.mark.parametrize("source", ["packaged", "offline-mutations-seed-3"])
def test_every_stored_fixture_entry_decodes(source):
    # A decoder too strict for these files would show only as lost accuracy
    # in a benchmark run: each entry it refuses reads as an outage.
    if source == "packaged":
        document = json.loads((DATA / "fixtures.json").read_text(encoding="utf-8"))
    else:
        generate = _bench_module("generate")
        document = generate.fixture_document(generate.offline_workload(3, DATA))
    outcomes = document["outcomes"]
    assert outcomes
    refused = [key for key, entry in outcomes.items() if _decode(entry, "fixture").failed]
    assert refused == []


def test_child_entry_points_report_what_the_cli_reports(tmp_path):
    # Every benchmark rep runs child.py setup, and --trace 1 runs child.py
    # pipeline; both call cli._build_runtime and rebind cli.FixtureProvider
    # and cli.LookupCache.
    bibliography = str(ROOT / "tests" / "data" / "exemplars.txt")
    fixtures = str(DATA / "fixtures.json")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "bibliography": bibliography, "fixtures": fixtures, "cache": None, "config": None,
        "jobs": 2, "report": str(tmp_path / "report.json"), "metrics": str(tmp_path / "m.json"),
    }), encoding="utf-8")
    expected = tmp_path / "cli.json"
    main(["verify", bibliography, "--format", "json", "--jobs", "2", "--fixtures", fixtures,
          "--out", str(expected)])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for mode in (["setup"], ["pipeline"], ["pipeline", "--trace"]):
        (tmp_path / "report.json").unlink(missing_ok=True)
        run = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "child.py"), *mode, "--spec", str(spec)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, (mode, run.stderr)
        if mode == ["setup"]:
            assert run.stdout == "ready\n"
        else:
            assert (tmp_path / "report.json").read_bytes() == expected.read_bytes(), mode
