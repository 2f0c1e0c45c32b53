"""citeaudit benchmark: labelled bibliographies through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs come from --seed alone (see
generate.py); the program sees only the generated files.

--trace 0 runs ``python -m citeaudit.cli verify --format json --jobs 2`` as a
fresh process, again and again for S seconds, and times set-up in separate
fresh processes (child.py setup). Every report is scored against the labels.
--trace 1 runs the same pipeline in-process (child.py pipeline), alternately
with and without the outside-in tracer, and reports per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics ({name: {value, unit}}).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from generate import write_workload  # noqa: E402
from stub import ENDPOINTS, StubServer, StubState  # noqa: E402

JOBS = 2                 # --jobs, the core count of the reference machine
CLI_DEFAULT_RATES = {"crossref": 5.0, "arxiv": 0.33, "openalex": 5.0}
MIN_REPS = 3             # timed CLI runs (or traced pairs) per benchmark run
SETUP_PROBES_PER_REP = 2
PROCESS_TIMEOUT_S = 60   # a child still running after this is killed

# Rate limits are the CLI defaults times rate_factor; every stub reply waits
# latency_ms.
WORKLOADS = {
    "offline-mutations": {"kind": "offline"},
    "stub-cold": {"kind": "stub", "rate_factor": 15.0, "latency_ms": 10.0},
}


# --- scoring ------------------------------------------------------------------


@dataclass
class Score:
    citations: int = 0
    status_ok: int = 0
    hallucinated_labels: int = 0
    primary_ok: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


_EXIT_FOR = {"hallucinated": 1, "unverifiable": 2}


def score_report(text: str | None, labels: list[dict], exit_code: int | None = None) -> Score:
    """Score one JSON report against the labels.

    A citation fails when its verdict is an internal error, or when a
    verified or outage label comes back hallucinated. A whole run fails
    when there is no readable report, its entries do not line up with the
    labels, or the exit code disagrees with the report's own summary."""
    s = Score(citations=len(labels))
    try:
        report = json.loads(text) if text else None
        entries = report["verdicts"] if report else None
    except (ValueError, KeyError, TypeError):
        entries = None
    if not entries or len(entries) != len(labels):
        s.failed = len(labels)
        s.problems.append("no report, or its entries do not match the labels")
        return s
    for entry, label in zip(entries, labels):
        if entry["citation_key"] != label["key"]:
            s.failed = len(labels)
            s.problems.append(f"entry {entry['citation_key']!r} where {label['key']!r} was expected")
            return s
        status = entry["status"]
        s.status_ok += status == label["status"]
        if label["status"] == "hallucinated":
            s.hallucinated_labels += 1
            s.primary_ok += entry["primary"] == label["primary"]
        if (
            (entry.get("cause") or "").startswith("internal_error:")
            or (label["status"] in ("verified", "unverifiable") and status == "hallucinated")
        ):
            s.failed += 1
            s.problems.append(f"{label['key']}: {label['mutation']} came back {status}")
    if exit_code is not None:
        summary = report["summary"]
        expected = 0
        for status in ("unverifiable", "hallucinated"):
            if summary[status]:
                expected = _EXIT_FOR[status]
        if exit_code != expected:
            s.failed = len(labels)
            s.problems.append(f"exit code {exit_code}, report summary implies {expected}")
    return s


# --- one benchmark run -------------------------------------------------------------


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    report: str | None
    stub: dict | None


class Bench:
    def __init__(self, root: Path, work: Path, name: str, seed: int):
        self.root = root
        self.work = work
        self.name = name
        self.params = WORKLOADS[name]
        self.stub_server: StubServer | None = None
        self._files = write_workload(
            self.params["kind"], seed, root / "src" / "citeaudit" / "data", work / "inputs"
        )
        self.labels = json.loads(self._files["labels"].read_text(encoding="utf-8"))
        self.env = dict(os.environ)
        self.env.pop("CITE_AUDIT_CACHE", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["NO_PROXY"] = self.env["no_proxy"] = "127.0.0.1,localhost"
        self.env["NETRC"] = str(work / "no-netrc")  # keep requests out of $HOME
        self.reference: str | None = None

    # stub workload ----------------------------------------------------------------

    def start_stub(self) -> None:
        document = json.loads(self._files["universe"].read_text(encoding="utf-8"))
        state = StubState(document, self.params["latency_ms"] / 1000)
        self.stub_server = StubServer(state).__enter__()
        factor = self.params["rate_factor"]
        lines = []
        for name, url in self.stub_server.endpoints().items():
            lines += [f"[provider.{name}]", f"endpoint = {url}",
                      f"rate_limit = {CLI_DEFAULT_RATES[name] * factor:g}", ""]
        self.ini = self.work / "providers.ini"
        self.ini.write_text("\n".join(lines), encoding="utf-8")

    def close(self) -> None:
        if self.stub_server is not None:
            self.stub_server.__exit__(None, None, None)
            self.stub_server = None

    def _fresh_cache(self) -> Path:
        """The cache file one run starts from: absent, so every run is cold."""
        path = self.work / "cache.jsonl"
        path.unlink(missing_ok=True)
        return path

    # processes ----------------------------------------------------------------

    def _spawn(self, cmd: list[str], stdout=subprocess.DEVNULL) -> subprocess.Popen:
        err = (self.work / "stderr.log").open("ab")
        try:
            return subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=stdout, stderr=err)
        finally:
            err.close()

    def _wait(self, proc: subprocess.Popen, t0: float) -> tuple[float, int, object]:
        """Reap proc with its resource usage; kill it if it hangs."""
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def _target_args(self, cache: Path | None) -> dict:
        if self.params["kind"] == "offline":
            return {"fixtures": str(self._files["fixtures"])}
        return {"config": str(self.ini), "cache": str(cache)}

    def cli_rep(self) -> Rep:
        cache = self._fresh_cache() if self.params["kind"] == "stub" else None
        out = self.work / "report-cli.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "citeaudit.cli", "verify", str(self._files["bibliography"]),
               "--format", "json", "--jobs", str(JOBS), "--out", str(out)]
        target = self._target_args(cache)
        if "fixtures" in target:
            cmd += ["--offline", "--fixtures", target["fixtures"]]
        else:
            cmd += ["--config", target["config"], "--cache", target["cache"]]
        return self._timed(cmd, out)

    def _timed(self, cmd: list[str], out: Path) -> Rep:
        if self.stub_server is not None:
            self.stub_server.state.reset()
        t0 = time.perf_counter()
        proc = self._spawn(cmd)
        wall, code, usage = self._wait(proc, t0)
        report = out.read_text(encoding="utf-8") if out.exists() else None
        stub = self.stub_server.state.counters() if self.stub_server is not None else None
        return Rep(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, report, stub)

    def _spec(self, cache: Path | None, tag: str) -> Path:
        spec = {
            "bibliography": str(self._files["bibliography"]),
            "jobs": JOBS,
            "report": str(self.work / f"report-{tag}.json"),
            "metrics": str(self.work / f"metrics-{tag}.json"),
            **self._target_args(cache),
        }
        path = self.work / f"spec-{tag}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def setup_probe(self) -> float | None:
        """Seconds from process start until a fresh process could parse."""
        cache = self._fresh_cache() if self.params["kind"] == "stub" else None
        spec = self._spec(cache, "setup")
        t0 = time.perf_counter()
        proc = self._spawn([sys.executable, str(BENCH_DIR / "child.py"), "setup", "--spec", str(spec)],
                           stdout=subprocess.PIPE)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            watchdog.cancel()
            proc.stdout.close()
            _, code, _ = self._wait(proc, t0)
        return elapsed if line.strip() == b"ready" and code == 0 else None

    def pipeline_rep(self, traced: bool) -> tuple[Rep, dict | None]:
        cache = self._fresh_cache() if self.params["kind"] == "stub" else None
        tag = "traced" if traced else "plain"
        spec = self._spec(cache, tag)
        report = self.work / f"report-{tag}.json"
        metrics = self.work / f"metrics-{tag}.json"
        report.unlink(missing_ok=True)
        metrics.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "pipeline", "--spec", str(spec)]
        rep = self._timed(cmd + (["--trace"] if traced else []), report)
        data = json.loads(metrics.read_text(encoding="utf-8")) if metrics.exists() else None
        return rep, data

    # the run -------------------------------------------------------------------

    def prepare(self) -> list[str]:
        """Untimed: start the stub, then run the CLI once to compile bytecode.

        The first CLI run's report is the reference every later report must
        equal byte for byte."""
        if self.params["kind"] == "stub":
            self.start_stub()
        first = self.cli_rep()
        self.reference = first.report
        score = score_report(first.report, self.labels, first.exit_code)
        return score.problems

    def measure(self, seconds: float) -> dict:
        reps: list[Rep] = []
        setups: list[float] = []
        problems: list[str] = []
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            reps.append(self.cli_rep())
            for _ in range(SETUP_PROBES_PER_REP):
                probe = self.setup_probe()
                if probe is None:
                    problems.append("setup probe failed")
                else:
                    setups.append(probe)
        n = len(self.labels)
        scores = [score_report(r.report, self.labels, r.exit_code) for r in reps]
        for rep, score in zip(reps, scores):
            problems += score.problems
            if rep.report != self.reference:
                problems.append("report differs from the first run of this seed")
        metrics = {
            "citations_per_s": n / statistics.median(r.wall_s for r in reps),
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "cpu_ms_per_citation": statistics.median(r.cpu_s for r in reps) * 1000 / n,
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
            "status_accuracy": sum(s.status_ok for s in scores) / sum(s.citations for s in scores),
            "primary_accuracy": (
                sum(s.primary_ok for s in scores) / max(1, sum(s.hallucinated_labels for s in scores))
            ),
        }
        return self._result(metrics, scores, problems)

    def measure_traced(self, seconds: float) -> dict:
        plain: list[Rep] = []
        traced: list[Rep] = []
        layers: list[dict] = []
        problems: list[str] = []
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_REPS or time.perf_counter() < deadline:
            # Alternate the order so neither side always runs on a warmer machine.
            for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                rep, data = self.pipeline_rep(with_trace)
                (traced if with_trace else plain).append(rep)
                if with_trace:
                    if data is None or "layers" not in data:
                        problems.append("traced run wrote no metrics")
                    else:
                        layers.append({**data["layers"], **data["timings"], **self._stub_metrics(rep)})
        # Keep the last traced run's spans for inspection; the rest is scratch.
        spans = self.work / "metrics-traced.spans.jsonl"
        if spans.exists():
            shutil.move(spans, self.work.parent / f"spans-{self.name}.jsonl")
        scores = [score_report(r.report, self.labels) for r in plain + traced]
        for rep, score in zip(plain + traced, scores):
            problems += score.problems
            if rep.report != self.reference:
                problems.append("in-process report differs from the CLI report")
        if not layers:
            raise RuntimeError("no traced run produced metrics")
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
        )
        return self._result(metrics, scores, problems)

    def _stub_metrics(self, rep: Rep) -> dict:
        """Requests the stub received during one run, counted outside the program."""
        stub = rep.stub or {"requests": 0, "outage_requests": 0, "non_outage_requests": 0,
                            "by_endpoint": dict.fromkeys(ENDPOINTS, 0)}
        return {
            "stub.requests": stub["requests"],
            "stub.requests_per_citation": stub["requests"] / len(self.labels),
            "stub.outage_requests": stub["outage_requests"],
            "stub.non_outage_requests": stub["non_outage_requests"],
            **{f"stub.{name}.requests": n for name, n in stub["by_endpoint"].items()},
        }

    def _result(self, metrics: dict, scores: list[Score], problems: list[str]) -> dict:
        for problem in dict.fromkeys(problems):
            print(f"problem: {problem}", file=sys.stderr)
        log = self.work / "stderr.log"
        if problems and log.exists():
            print(log.read_text(encoding="utf-8", errors="replace")[-4000:], file=sys.stderr)
        return {
            "correct": not problems,
            "attempted": sum(s.citations for s in scores),
            "failed": sum(s.failed for s in scores),
            "metrics": metrics,
        }


def select_metrics(measured: dict, declared: list[dict]) -> dict:
    """The declared metrics, in BENCHMARK.json's order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise KeyError(f"BENCHMARK.json declares metrics this run did not measure: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}




# --- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so children are killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "citeaudit" / "cli.py").is_file():
        print("error: run from the root of a citeaudit checkout (no src/citeaudit/cli.py here)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = None
    try:
        bench = Bench(root, work, args.workload, args.seed)
        problems = bench.prepare()
        if args.trace:
            result = bench.measure_traced(args.seconds)
        else:
            result = bench.measure(args.seconds)
        result["metrics"] = select_metrics(
            result["metrics"], declared["per_layer" if args.trace else "end_to_end"]
        )
        if problems:
            for problem in problems:
                print(f"problem: {problem}", file=sys.stderr)
            result["correct"] = False
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
