#!/usr/bin/env python3
"""Check that this checkout writes the same reports as another one.

Both benchmark workloads are generated for each seed with bench/generate.py,
from this checkout's packaged data, so the two trees read the same input
files. Each tree's ``python -m citeaudit.cli verify`` then runs on them:
offline-mutations with --fixtures in json, text and csv, and stub-cold in
json against the loopback stub of bench/stub.py, with an empty --cache and
the stub's counters reset before each run. One line per seed and format
says whether the two reports are byte-identical, and for stub-cold gives
each tree's stub request counts.

Usage: python scripts/compare_reports.py PARENT_CHECKOUT [--seeds 3 5 11]

PARENT_CHECKOUT is the root of another checkout (for example a
``git archive`` of the parent commit). Exit status 0 when every report and
every request count agree, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "citeaudit" / "data"
sys.path.insert(0, str(ROOT / "bench"))

from generate import write_workload  # noqa: E402
from run import CLI_DEFAULT_RATES, WORKLOADS  # noqa: E402
from stub import StubServer, StubState  # noqa: E402

OFFLINE_FORMATS = ("json", "text", "csv")
TIMEOUT_S = 120


def _verify(tree: Path, args: list[str], out: Path) -> bytes:
    """The report one tree's CLI writes to out; exit codes 0-2 are verdicts."""
    out.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "CITE_AUDIT_CACHE"}
    env["PYTHONPATH"] = str(tree / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    result = subprocess.run(
        [sys.executable, "-m", "citeaudit.cli", "verify", *args, "--out", str(out)],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=TIMEOUT_S,
    )
    if result.returncode not in (0, 1, 2):
        raise RuntimeError(f"{tree}: exit {result.returncode}: {result.stderr.decode()[-500:]}")
    return out.read_bytes()


def _stub_ini(server: StubServer, path: Path) -> Path:
    """Provider sections pointing at the stub, at the benchmark's rates."""
    factor = WORKLOADS["stub-cold"]["rate_factor"]
    lines = []
    for name, url in server.endpoints().items():
        lines += [f"[provider.{name}]", f"endpoint = {url}",
                  f"rate_limit = {CLI_DEFAULT_RATES[name] * factor:g}", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _requests(counters: dict) -> str:
    by_endpoint = ", ".join(f"{name} {n}" for name, n in counters["by_endpoint"].items())
    return f"{counters['requests']} ({by_endpoint}; outage {counters['outage_requests']})"


def compare_offline(trees: dict[str, Path], seed: int, work: Path) -> bool:
    files = write_workload("offline", seed, DATA_DIR, work / "inputs")
    same = True
    for fmt in OFFLINE_FORMATS:
        reports = {
            side: _verify(tree, [str(files["bibliography"]), "--fixtures",
                                 str(files["fixtures"]), "--format", fmt],
                          work / f"report-{side}.{fmt}")
            for side, tree in trees.items()
        }
        identical = len(set(reports.values())) == 1
        same &= identical
        print(f"offline-mutations seed {seed} {fmt}: "
              f"{'identical' if identical else 'DIFFERENT'} ({len(reports['parent'])} bytes)")
    return same


def compare_stub(trees: dict[str, Path], seed: int, work: Path) -> bool:
    files = write_workload("stub", seed, DATA_DIR, work / "inputs")
    document = json.loads(files["universe"].read_text(encoding="utf-8"))
    state = StubState(document, WORKLOADS["stub-cold"]["latency_ms"] / 1000)
    reports, counters = {}, {}
    with StubServer(state) as server:
        ini = _stub_ini(server, work / "providers.ini")
        for side, tree in trees.items():
            cache = work / f"cache-{side}.jsonl"
            cache.unlink(missing_ok=True)
            state.reset()
            reports[side] = _verify(
                tree, [str(files["bibliography"]), "--config", str(ini), "--cache", str(cache),
                       "--format", "json"],
                work / f"report-{side}.json",
            )
            counters[side] = state.counters()
    identical = len(set(reports.values())) == 1
    same_requests = counters["parent"] == counters["change"]
    print(f"stub-cold seed {seed} json: {'identical' if identical else 'DIFFERENT'}; "
          f"stub requests {'equal' if same_requests else 'DIFFERENT'}: "
          + ", ".join(f"{side} {_requests(c)}" for side, c in counters.items()))
    return identical and same_requests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_CHECKOUT")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 5, 11])
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "citeaudit" / "cli.py").is_file():
        parser.error(f"{parent}: not a citeaudit checkout (no src/citeaudit/cli.py)")
    trees = {"parent": parent, "change": ROOT}
    same = True
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        for seed in args.seeds:
            work = Path(tmp) / str(seed)
            same &= compare_offline(trees, seed, work / "offline")
            same &= compare_stub(trees, seed, work / "stub")
    print("all reports identical" if same else "reports or request counts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
