from __future__ import annotations

import gc
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
import zipfile
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import citeaudit
from citeaudit import cli
from citeaudit import resolve as resolve_module
from citeaudit.classify import classify_batch
from citeaudit.cli import main
from citeaudit.data import load_packaged_vocab
from citeaudit.identifiers import make_identifier
from citeaudit.model import FailureMode, IdentifierKind, Verdict, VerdictStatus
from citeaudit.parsing import parse_text
from citeaudit.resolve import LookupOutcome
from citeaudit.report import (
    EXIT_HALLUCINATED,
    EXIT_OK,
    EXIT_UNVERIFIABLE,
    EXIT_USAGE,
    build_report,
    exit_code_for,
    render_report,
)
from tests.conftest import make_citation, make_record
from tests.http_fakes import FakeWorksSession, Paper, ReplySession

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fixtures_path() -> str:
    return str(resources.files("citeaudit").joinpath("data/fixtures.json"))


class TestVerifyCommand:
    def test_clean_bibliography_verifies(self, fixtures_path, capsys):
        code = main(["verify", str(DATA / "clean.bib"), "--fixtures", fixtures_path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "3 citations" in out
        assert out.count("VERIFIED") == 3
        assert "verified 3, hallucinated 0, unverifiable 0" in out

    def test_exemplars_flag_all_five_modes(self, fixtures_path, capsys):
        code = main(
            ["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path]
        )
        out = capsys.readouterr().out
        assert code == EXIT_HALLUCINATED
        for label in ("TF+SH", "PAC+SH", "IH+SH", "SH+TF", "PH+SH"):
            assert f"HALLUCINATED {label}" in out
        assert "verified 0, hallucinated 5, unverifiable 0" in out
        # flagged entries quote the claimed reference verbatim
        assert "    > John Smith and Jane Doe." in out

    def test_json_report_carries_raw_text_verbatim(self, fixtures_path, capsys):
        main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--format",
                "json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        source_lines = [
            line.split("] ", 1)[1]
            for line in (DATA / "exemplars.txt").read_text().splitlines()
            if line.strip()
        ]
        assert [v["raw_text"] for v in report["verdicts"]] == source_lines
        assert report["summary"]["by_primary"] == {
            "IH": 1,
            "PAC": 1,
            "PH": 1,
            "SH": 1,
            "TF": 1,
        }

    def test_csv_report_is_one_line_per_citation(self, fixtures_path, capsys):
        main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--format",
                "csv",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "citation_key,status,primary,secondary,cause,detail,raw_text"
        )
        assert len(lines) == 6
        assert all("\n" not in line for line in lines)

    def test_outage_is_unverifiable_not_hallucinated(self, capsys):
        code = main(
            [
                "verify",
                str(DATA / "outage20.bib"),
                "--offline",
                "--fixtures",
                str(DATA / "fixtures_offline_empty.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_UNVERIFIABLE
        assert out.count("UNVERIFIABLE (offline)") == 20
        assert "verified 0, hallucinated 0, unverifiable 20" in out

    def test_fail_on_unverifiable_promotes_exit_code(self, capsys):
        code = main(
            [
                "verify",
                str(DATA / "outage20.bib"),
                "--offline",
                "--fixtures",
                str(DATA / "fixtures_offline_empty.json"),
                "--fail-on",
                "unverifiable",
            ]
        )
        assert code == EXIT_HALLUCINATED

    def test_out_writes_file_instead_of_stdout(self, fixtures_path, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code = main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--out",
                str(target),
            ]
        )
        assert code == EXIT_HALLUCINATED
        assert capsys.readouterr().out == ""
        assert "HALLUCINATED" in target.read_text(encoding="utf-8")

    def test_jobs_do_not_change_output(self, fixtures_path, capsys):
        main(
            ["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path,
             "--jobs", "1"]
        )
        sequential = capsys.readouterr().out
        main(
            ["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path,
             "--jobs", "4"]
        )
        assert capsys.readouterr().out == sequential

    def test_parse_warnings_go_to_stderr(self, fixtures_path, capsys, tmp_path):
        bib = tmp_path / "warn.bib"
        bib.write_text(
            "@article{, author={A B}, title={T t t}, year={2020}}\n",
            encoding="utf-8",
        )
        main(["verify", str(bib), "--fixtures", fixtures_path])
        err = capsys.readouterr().err
        assert "warning:" in err


class TestJsonReportStability:
    def test_byte_identical_across_runs_and_golden(
        self, fixtures_path, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(DATA)
        outputs = []
        for name in ("a.json", "b.json"):
            target = tmp_path / name
            code = main(
                [
                    "verify",
                    "exemplars.txt",
                    "--fixtures",
                    fixtures_path,
                    "--format",
                    "json",
                    "--out",
                    str(target),
                ]
            )
            assert code == EXIT_HALLUCINATED
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == (DATA / "golden_report.json").read_bytes()

    @given(
        document=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda children: st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(
                st.text(max_size=6) | st.integers() | st.floats() | st.booleans() | st.none(),
                children,
                max_size=4,
            ),
            max_leaves=24,
        )
    )
    def test_json_text_is_what_json_dumps_writes(self, document):
        expected = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
        assert render_report(document, "json") == expected

    @pytest.mark.parametrize("document", [{(1, 2): 0}, {"a": [object()]}, {"a": {1j}}])
    def test_json_rejects_what_json_dumps_rejects(self, document):
        with pytest.raises(TypeError):
            json.dumps(document, indent=2)
        with pytest.raises(TypeError):
            render_report(document, "json")


class TestThresholdConfiguration:
    def _paolone_primary(self, capsys, extra: list[str], fixtures_path: str) -> str:
        main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--format",
                "json",
                *extra,
            ]
        )
        report = json.loads(capsys.readouterr().out)
        return report["verdicts"][1]["primary"]

    def test_author_strong_flag_flips_corruption_to_semantic(
        self, fixtures_path, capsys
    ):
        assert self._paolone_primary(capsys, [], fixtures_path) == "PAC"
        assert (
            self._paolone_primary(
                capsys, ["--author-strong", "0.95"], fixtures_path
            )
            == "SH"
        )

    def test_ini_sets_thresholds_and_flags_override(
        self, fixtures_path, capsys, tmp_path
    ):
        ini = tmp_path / "citeaudit.ini"
        ini.write_text("[classifier]\nauthor_strong = 0.95\n", encoding="utf-8")
        assert (
            self._paolone_primary(
                capsys, ["--config", str(ini)], fixtures_path
            )
            == "SH"
        )
        assert (
            self._paolone_primary(
                capsys,
                ["--config", str(ini), "--author-strong", "0.8"],
                fixtures_path,
            )
            == "PAC"
        )

    def test_invalid_threshold_combination_is_usage_error(
        self, fixtures_path, capsys
    ):
        code = main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--title-strong",
                "1.5",
            ]
        )
        assert code == EXIT_USAGE
        assert "title_strong" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini_text, flags",
        [(None, ["--plausibility", "1.5"]), ("[classifier]\nplausibility = -0.1\n", [])],
        ids=["flag", "ini"],
    )
    def test_plausibility_out_of_range_is_usage_error(
        self, ini_text, flags, fixtures_path, tmp_path, capsys
    ):
        if ini_text is not None:
            ini = tmp_path / "citeaudit.ini"
            ini.write_text(ini_text, encoding="utf-8")
            flags = ["--config", str(ini)]
        code = main(["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path, *flags])
        assert code == EXIT_USAGE
        assert "plausibility" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, fixtures_path, tmp_path, capsys):
        code = main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--config",
                str(tmp_path / "missing.ini"),
            ]
        )
        assert code == EXIT_USAGE


    @pytest.mark.parametrize(
        "text, named",
        [
            ("[classifier]\ntitle_strong = abc\n", "title_strong"),
            ("[classifier]\nsh_requires_real_author = maybe\n", "sh_requires_real_author"),
            ("title_strong = 0.9\n", "no section headers"),
            ("[provider.crossref]\nrate_limit = -1\n", "rate_limit"),
            ("[classifier]\ntitle_strng = 0.9\n", "title_strng"),
            ("[classifier]\ntitle_moderate = 0.6\n", "title_moderate"),
            ("[provider.arxiv]\nrate = 1\n", "rate"),
            ("[provider.semantic]\nrate_limit = 1\n", "semantic"),
            ("[classifier]\nplausibility = 70%\n", "[classifier] plausibility"),
            ("[provider.crossref]\nrate_limit = nan\n", "[provider.crossref] rate_limit"),
            ("[provider.arxiv]\ntimeout = nan\n", "[provider.arxiv] timeout"),
            ("[provider.openalex]\nenabled = sometimes\n", "[provider.openalex] enabled"),
            ("[classifer]\nplausibility = 5\n", "[classifer]"),
            ("[Provider.crossref]\nrate_limit = -3\n", "[Provider.crossref]"),
            ("[provider.crossref]\ntimeout = 1e300\n", "[provider.crossref] timeout"),
            ("[provider.arxiv]\nrate_limit = 1e-300\n", "[provider.arxiv] rate_limit"),
        ],
        ids=[
            "not-a-float",
            "not-a-boolean",
            "no-section-header",
            "negative-rate-limit",
            "misspelt-key",
            "retired-key",
            "unknown-provider-key",
            "unknown-provider",
            "percent-sign",
            "nan-rate-limit",
            "nan-timeout",
            "enabled-not-a-boolean",
            "misspelt-section",
            "miscased-provider-section",
            "timeout-past-timeout-max",
            "rate-limit-below-one-per-timeout-max",
        ],
    )
    def test_malformed_config_is_usage_error(
        self, text, named, fixtures_path, tmp_path, capsys
    ):
        ini = tmp_path / "citeaudit.ini"
        ini.write_text(text, encoding="utf-8")
        code = main(
            [
                "verify",
                str(DATA / "exemplars.txt"),
                "--fixtures",
                fixtures_path,
                "--config",
                str(ini),
            ]
        )
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err


# One setting per [classifier] key, each changing at least one verdict on the
# exemplars plus a citation dated two years after its record.
_VERDICT_CHANGING = {
    "title_strong": "0.3",
    "author_strong": "0.95",
    "year_slack": "2",
    "plausibility": "1.0",
    "sh_requires_real_author": "false",
}
_TWO_YEARS_OFF = (
    "[6] Y. LeCun, Y. Bengio, and G. Hinton. Deep learning. Nature,"
    " 521:436-444, 2017. doi:10.1038/nature14539\n"
)


class TestEveryKeyChangesAVerdict:
    def test_table_covers_every_key(self):
        assert set(_VERDICT_CHANGING) == set(cli._CLASSIFIER_KEYS)

    @pytest.mark.parametrize("key", sorted(_VERDICT_CHANGING))
    def test_setting_changes_a_verdict(self, key, fixtures_path, tmp_path, capsys):
        bib = tmp_path / "refs.txt"
        bib.write_text(
            (DATA / "exemplars.txt").read_text(encoding="utf-8") + _TWO_YEARS_OFF,
            encoding="utf-8",
        )

        def verdicts(*extra: str) -> list[tuple]:
            main(["verify", str(bib), "--fixtures", fixtures_path, "--format", "json", *extra])
            report = json.loads(capsys.readouterr().out)
            return [(v["status"], v["primary"], v["secondary"]) for v in report["verdicts"]]

        value = _VERDICT_CHANGING[key]
        ini = tmp_path / "citeaudit.ini"
        ini.write_text(f"[classifier]\n{key} = {value}\n", encoding="utf-8")
        configured = verdicts("--config", str(ini))
        assert configured != verdicts()
        if key in cli._THRESHOLD_KEYS:
            assert verdicts("--" + key.replace("_", "-"), value) == configured


class TestUsageErrors:
    def test_missing_input_file(self, capsys):
        code = main(["verify", "no-such-file.bib"])
        assert code == EXIT_USAGE
        assert "no-such-file.bib" in capsys.readouterr().err

    def test_offline_requires_fixtures(self, capsys):
        code = main(["verify", str(DATA / "clean.bib"), "--offline"])
        assert code == EXIT_USAGE
        assert "--fixtures" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, content, named",
        [
            ("verify", None, b"\xff\xfe[1] A. Author. A title. 2020.\n", "refs.txt"),
            ("verify", "--fixtures", b"{not json", "fixtures.json"),
            ("verify", "--fixtures", b"\xff\xfe{}", "fixtures.json"),
            ("verify", "--fixtures", b"[1, 2]", "fixtures.json"),
            ("verify", "--fixtures", b'{"outcomes": ["doi:10.1/x"]}', "fixtures.json"),
            ("verify", "--fixtures", b'{"closed_world": "false", "outcomes": {}}', "fixtures.json"),
            ("classify", "--fixtures", b"{not json", "fixtures.json"),
            ("verify", "--vocab", b"\xff\xfelearning\n", "vocab.txt"),
            ("verify", "--cache", b"\xff\xfe{}\n", "cache.jsonl"),
            ("stats", None, b"\xff\xfepaper_id,citation_text,primary\n", "corpus.csv"),
        ],
        ids=[
            "bibliography-not-utf8",
            "fixtures-not-json",
            "fixtures-not-utf8",
            "fixtures-not-an-object",
            "fixture-outcomes-not-an-object",
            "fixture-closed-world-not-a-bool",
            "classify-fixtures-not-json",
            "vocab-not-utf8",
            "cache-not-utf8",
            "corpus-not-utf8",
        ],
    )
    def test_malformed_input_file_is_usage_error(
        self, command, option, content, named, fixtures_path, tmp_path, capsys
    ):
        # Exit 1 means hallucinations were found; a broken file is exit 3.
        broken = tmp_path / named
        broken.write_bytes(content)
        bib_path = tmp_path / "refs.txt"
        if option is not None:
            bib_path.write_bytes((DATA / "exemplars.txt").read_bytes())
        fixtures = broken if option == "--fixtures" else fixtures_path
        target = str(bib_path) if command == "verify" else "A. Author. A title. 2020."
        args = [command, target, "--fixtures", str(fixtures)]
        if option == "--vocab":
            args += [option, str(broken)]
        if option == "--cache":
            # A fixture run opens no cache; a run with every provider left
            # out still does.
            ini = _write_ini(
                tmp_path,
                "".join(f"[provider.{name}]\nenabled = false\n" for name in cli._DEFAULT_PROVIDERS),
            )
            args = [command, target, "--config", ini, option, str(broken)]
        if command == "stats":
            args = [command, str(broken)]
        assert main(args) == EXIT_USAGE
        assert str(broken) in capsys.readouterr().err

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == EXIT_USAGE
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [("--jobs", "0"), ("--jobs", "not-a-number"), ("--format", "xml")],
        ids=["jobs-zero", "jobs-not-an-integer", "unknown-format"],
    )
    def test_bad_option_value(self, option, value, fixtures_path, capsys):
        code = main(["verify", str(DATA / "clean.bib"), "--fixtures", fixtures_path, option, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert option in err and value in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "frobnicate" in capsys.readouterr().err

    def test_help_names_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in ("verify", "classify", "stats"))
        assert main(["verify", "--help"]) == 0
        assert "--fixtures" in capsys.readouterr().out

    def test_version_runs_clean(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "citeaudit" in out
        assert citeaudit.__version__ in out
        assert out == f"citeaudit, version {citeaudit.__version__}\n"


def _write_ini(tmp_path: Path, text: str) -> str:
    ini = tmp_path / "citeaudit.ini"
    ini.write_text(text, encoding="utf-8")
    return str(ini)


class TestProviderSections:
    def test_values_are_read_literally(self, tmp_path):
        # No key interpolates, so a % in a value is kept as written.
        ini = _write_ini(tmp_path, "[provider.crossref]\nendpoint = https://api.crossref.org/%7Ex\n")
        resolver, _ = cli._build_runtime(False, None, None, ini, None, {})
        crossref = resolver._provider_for("lookup_doi")
        assert crossref.config.base_endpoint == "https://api.crossref.org/%7Ex"

    def test_disabled_provider_owns_no_op(self, tmp_path):
        ini = _write_ini(tmp_path, "[provider.crossref]\nenabled = false\n")
        resolver, _ = cli._build_runtime(False, None, None, ini, None, {})
        doi_only = make_citation(
            authors=(), title="", identifiers=(make_identifier(IdentifierKind.DOI, "10.1000/x"),)
        )
        (bundle,) = resolver.resolve_all([doi_only], jobs=1)
        no_provider = LookupOutcome.unavailable("no_provider")
        assert bundle.identifier_outcomes == (("doi:10.1000/x", no_provider),)
        assert resolver._provider_for("search_title").name == "openalex"

    def test_all_providers_disabled_is_unverifiable_without_a_transport(self, tmp_path):
        # With every provider left out no HTTP client is built, so the
        # transport is never imported and every lookup is no_provider.
        ini = _write_ini(
            tmp_path,
            "".join(f"[provider.{name}]\nenabled = false\n" for name in cli._DEFAULT_PROVIDERS),
        )
        out = tmp_path / "report.json"
        probe = (
            "import sys; from citeaudit.cli import main; code = main(sys.argv[1:]); "
            "print('citeaudit.transport' in sys.modules); sys.exit(code)"
        )
        src = str(Path(citeaudit.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "CITE_AUDIT_CACHE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", probe, "verify", str(DATA / "exemplars.txt"),
             "--config", ini, "--format", "json", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_UNVERIFIABLE, result.stderr
        assert result.stdout.strip() == "False"
        verdicts = json.loads(out.read_text(encoding="utf-8"))["verdicts"]
        assert [(v["status"], v["cause"]) for v in verdicts] == [
            ("unverifiable", "provider_unavailable")
        ] * 5


# Modules an offline plaintext verify has no use for: the CLI library it no
# longer uses, corpus statistics, the BibTeX reader, the HTTP stack, lane
# threads, the arXiv XML parser, the INI reader (no --config), the CSV
# writer (no --format csv) and the zip reader of importlib.resources.
_NOT_LOADED_OFFLINE = (
    "click", "citeaudit.analytics", "citeaudit.bibtex", "citeaudit.transport",
    "statistics", "concurrent.futures", "xml.etree.ElementTree", "http.client", "ssl",
    "configparser", "csv", "zipfile",
)


def _fresh_python(
    probe: str, *args: str, flags: tuple[str, ...] = ()
) -> subprocess.CompletedProcess:
    """Run probe in a new interpreter, started with flags, that imports
    citeaudit from this tree."""
    src = str(Path(citeaudit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestStartup:
    def test_import_does_not_load_requests(self):
        # Offline runs never build an HTTP client, so they should not pay
        # for importing one: neither requests nor http.client and ssl.
        probe = (
            "import sys, citeaudit.cli; "
            "print([m for m in ('requests', 'http.client', 'ssl') if m in sys.modules])"
        )
        result = _fresh_python(probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_offline_plaintext_verify_loads_only_what_it_runs(self, fixtures_path):
        probe = (
            "import sys; from citeaudit.cli import main; code = main(sys.argv[1:]); "
            f"print([m for m in {_NOT_LOADED_OFFLINE!r} if m in sys.modules]); sys.exit(code)"
        )
        # Without site: a .pth file in site-packages may import modules of
        # its own (certifi's loads importlib.resources and with it zipfile),
        # and the set pinned here is what citeaudit loads.
        result = _fresh_python(
            probe, "verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path,
            "--format", "json", flags=("-S",),
        )
        assert result.returncode == EXIT_HALLUCINATED, result.stderr
        report, _, loaded = result.stdout.rstrip("\n").rpartition("\n")
        assert json.loads(report)["summary"]["by_primary"]["TF"] == 1
        assert loaded == "[]"

    def test_stats_loads_the_corpus_reader_when_it_runs(self):
        result = _fresh_python("import sys; from citeaudit.cli import main; sys.exit(main(['stats']))")
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout.startswith("Primary failure modes (n=100)")

    def test_packaged_data_reads_from_a_zip_install(self, tmp_path):
        package = Path(citeaudit.__file__).resolve().parent
        archive = tmp_path / "citeaudit.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, Path("citeaudit") / path.relative_to(package))
        probe = (
            "import citeaudit.data as d; "
            "print(d.__file__.endswith('data.py') and '.zip' in d.__file__, "
            "len(d.load_packaged_vocab()), len(d.load_packaged_corpus()))"
        )
        env = {**os.environ, "PYTHONPATH": str(archive)}
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        loaded, vocab, rows = result.stdout.split()
        assert loaded == "True"
        assert int(vocab) == len(load_packaged_vocab())
        assert int(rows) == 100

    def test_packaged_data_the_loader_cannot_read_is_an_error(self, monkeypatch):
        monkeypatch.setattr(pkgutil, "get_data", lambda package, resource: None)
        with pytest.raises(OSError, match="data/vocab.txt"):
            load_packaged_vocab()


class TestCollectorFreeze:
    """verify and classify freeze the collector's generations once the
    runtime is built, and unfreeze them when the command ends; library calls
    leave the collector alone."""

    @pytest.fixture()
    def freezes(self, monkeypatch) -> list[int]:
        """Each gc.freeze call, by the frozen count it found."""
        calls: list[int] = []
        real_freeze = gc.freeze

        def recording_freeze():
            calls.append(gc.get_freeze_count())
            real_freeze()

        monkeypatch.setattr(gc, "freeze", recording_freeze)
        return calls

    def test_verify_freezes_once_while_it_classifies(
        self, fixtures_path, freezes, monkeypatch, capsys
    ):
        frozen_while_classifying = []
        real_batch = cli.classify_batch

        def batch(*args, **kwargs):
            frozen_while_classifying.append(gc.get_freeze_count())
            return real_batch(*args, **kwargs)

        monkeypatch.setattr(cli, "classify_batch", batch)
        for _ in range(2):
            freezes.clear()
            code = main(["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path])
            assert code == EXIT_HALLUCINATED
            assert freezes == [0]
            assert gc.get_freeze_count() == 0
            assert gc.isenabled()
        assert len(frozen_while_classifying) == 2
        assert all(count > 0 for count in frozen_while_classifying)

    def test_classify_command_freezes_once(self, fixtures_path, freezes, capsys):
        code = main(["classify", TestClassifyCommand.NANDA, "--fixtures", fixtures_path])
        assert code == EXIT_HALLUCINATED
        assert freezes == [0]
        assert gc.get_freeze_count() == 0

    def test_a_usage_error_inside_the_command_unfreezes(
        self, fixtures_path, tmp_path, freezes, capsys
    ):
        out = tmp_path / "missing-dir" / "report.txt"
        code = main(
            ["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "not writable" in capsys.readouterr().err
        assert freezes == [0]
        assert gc.get_freeze_count() == 0

    def test_library_batch_never_freezes(self, offline_resolver, classifier_config, freezes):
        citations = parse_text((DATA / "exemplars.txt").read_text(encoding="utf-8")).citations
        verdicts = classify_batch(citations, offline_resolver, classifier_config, jobs=2)
        assert len(verdicts) == 5
        assert freezes == []
        assert gc.get_freeze_count() == 0


class TestClassifyCommand:
    NANDA = (
        "Nanda, N. (2023). Progress in mechanistic interpretability:"
        " Reverse-engineering induction heads in GPT-2. arXiv preprint."
    )

    def test_single_citation(self, fixtures_path, capsys):
        code = main(["classify", self.NANDA, "--fixtures", fixtures_path])
        out = capsys.readouterr().out
        assert code == EXIT_HALLUCINATED
        assert "<argument>: 1 citations" in out
        assert "HALLUCINATED SH+TF" in out

    def test_vocab_file_sets_plausibility(self, fixtures_path, tmp_path, capsys):
        # No title token is in this vocabulary, so the title is no longer
        # plausible: SH leaves, and TF leads.
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("unrelated\n\nwords\n", encoding="utf-8")
        code = main(["classify", self.NANDA, "--fixtures", fixtures_path, "--vocab", str(vocab)])
        assert code == EXIT_HALLUCINATED
        assert "HALLUCINATED TF+PAC" in capsys.readouterr().out

    def test_json_output(self, fixtures_path, capsys):
        main(
            ["classify", self.NANDA, "--fixtures", fixtures_path, "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["input"] == "<argument>"
        assert report["verdicts"][0]["raw_text"] == self.NANDA

    def test_empty_argument_rejected(self, capsys):
        assert main(["classify", "   "]) == EXIT_USAGE

    VASWANI = (
        "Vaswani, A., Shazeer, N., & Parmar, N. (2017). Attention is all you need."
        " Advances in Neural Information Processing Systems."
    )
    _VASWANI_RECORD = {
        "title": "Attention is all you need",
        "authors": ["Ashish Vaswani", "Noam Shazeer", "Niki Parmar"],
        "year": 2017,
    }

    @pytest.mark.parametrize(
        "entry, code, line",
        [
            (
                {"recods": [_VASWANI_RECORD]},
                EXIT_UNVERIFIABLE,
                "UNVERIFIABLE (provider_unavailable)",
            ),
            ({"status": "found", "record": _VASWANI_RECORD}, EXIT_OK, "VERIFIED"),
        ],
        ids=["misspelt-records", "single-record-form"],
    )
    def test_title_entry_of_an_open_world_fixture(self, entry, code, line, tmp_path, capsys):
        # The only entry answers the title search; the author-year search is
        # unlisted, so offline. A title entry that does not decode is no
        # evidence that the work does not exist.
        fixtures = tmp_path / "fixtures.json"
        document = {"closed_world": False, "outcomes": {"title:attention is all you need": entry}}
        fixtures.write_text(json.dumps(document), encoding="utf-8")
        assert main(["classify", self.VASWANI, "--fixtures", str(fixtures)]) == code
        assert f"[1] {line}\n" in capsys.readouterr().out


class TestStatsCommand:
    def test_packaged_default(self, capsys):
        code = main(["stats"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("Primary failure modes (n=100)")
        assert "TF      66  66.0%" in out

    def test_explicit_corpus_csv_format(self, capsys, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            "paper_id,citation_text,primary,secondary,notes\nP01,c,TF,SH,\n",
            encoding="utf-8",
        )
        code = main(["stats", str(corpus), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "primary,TF,1,100.0" in out

    def test_corpus_with_byte_order_mark_is_read(self, capsys, tmp_path):
        # Spreadsheet programs often save UTF-8 CSV with a leading BOM.
        corpus = tmp_path / "c.csv"
        corpus.write_bytes(
            b"\xef\xbb\xbfpaper_id,citation_text,primary,secondary,notes\nP01,c,TF,SH,\n"
        )
        code = main(["stats", str(corpus), "--format", "csv"])
        assert code == EXIT_OK
        assert "primary,TF,1,100.0" in capsys.readouterr().out

    def test_out_option(self, capsys, tmp_path):
        target = tmp_path / "summary.json"
        assert main(["stats", "--format", "json", "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["n_citations"] == 100

    def test_bad_corpus_reports_each_row_on_stderr(self, capsys, tmp_path):
        corpus = tmp_path / "bad.csv"
        corpus.write_text(
            "paper_id,citation_text,primary,secondary,notes\n"
            "P01,c,QQ,SH,\nP02,c,TF,,\n",
            encoding="utf-8",
        )
        code = main(["stats", str(corpus)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "error: row 2, column primary" in err
        assert "error: row 3, column secondary" in err

    def test_header_only_corpus_rejected(self, capsys, tmp_path):
        corpus = tmp_path / "empty.csv"
        corpus.write_text(
            "paper_id,citation_text,primary,secondary,notes\n", encoding="utf-8"
        )
        assert main(["stats", str(corpus)]) == EXIT_USAGE
        assert "no rows" in capsys.readouterr().err


_LECUN = "Y. LeCun, Y. Bengio, G. Hinton. Deep learning. Nature, 2015."
_LECUN_DOI = "10.1038/nature14539"
# The op part of the rows a run writes for the DOI lookup and the title
# search; a row's whole key also names the provider and its endpoint.
_OP_KEYS = {"doi": f"doi:{_LECUN_DOI}", "title": "title:deep learning"}
_NOW = time.time()


def _found(**record) -> dict:
    return {"status": "found", "record": {"title": "Deep learning", "year": 2015, **record}}


def _cache_row(key, payload) -> dict:
    return {"key": key, "stored_at": _NOW, "payload": payload}


def _rows(cache: Path) -> list:
    return [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]


def _provider_ini(tmp_path: Path, endpoint: str) -> str:
    """An INI that puts every provider at endpoint/<name>, without a rate limit."""
    return _write_ini(
        tmp_path,
        "".join(
            f"[provider.{name}]\nendpoint = {endpoint}/{name}\nrate_limit = 0\n"
            for name in cli._DEFAULT_PROVIDERS
        ),
    )


@pytest.fixture()
def online(tmp_path, monkeypatch) -> SimpleNamespace:
    """A network run's options (args) and the one session every client
    gets (session): a FakeWorksSession that holds the LeCun paper."""
    authors = ("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton")
    session = FakeWorksSession({_LECUN_DOI: Paper("Deep learning", authors, 2015, "Nature")})
    monkeypatch.setattr(resolve_module, "_new_session", lambda: session)
    monkeypatch.delenv("CITE_AUDIT_CACHE", raising=False)
    return SimpleNamespace(
        args=["--config", _provider_ini(tmp_path, "http://works.test")], session=session
    )


class TestCacheRows:
    """A --cache file is read through the fixture entry decoder. A row or a
    payload that does not decode is a miss: the run gives the verdict and
    exit code of a run without the cache, and the key is fetched again."""

    @staticmethod
    def _classify(citation, online, capsys, cache=None):
        args = ["classify", citation, *online.args, "--format", "json"]
        if cache is not None:
            args += ["--cache", str(cache)]
        return main(args), capsys.readouterr().out

    @pytest.mark.parametrize(
        "op, row",
        [
            ("doi", lambda key: _cache_row(key, _found(title=5))),
            ("doi", lambda key: _cache_row(key, _found(year="2015"))),
            ("doi", lambda key: _cache_row(key, _found(authors="Yann LeCun"))),
            ("doi", lambda key: _cache_row(key, _found(authors=[{"raw": "Y. LeCun"}]))),
            ("doi", lambda key: _cache_row(key, _found(identifiers=[{"kind": "doi"}]))),
            ("doi", lambda key: _cache_row(key, _found(identifiers=[{"kind": "isbn"}]))),
            ("doi", lambda key: _cache_row(key, {"status": "found"})),
            ("doi", lambda key: _cache_row(key, {"status": "found", "record": ["Deep learning"]})),
            ("doi", lambda key: _cache_row(key, {"status": "bogus"})),
            ("doi", lambda key: _cache_row(key, {"status": ["not_found"]})),
            ("doi", lambda key: _cache_row(key, {"status": "unavailable", "cause": "http_5xx"})),
            ("doi", lambda key: _cache_row(key, {"status": "unavailable", "cause": 5})),
            ("title", lambda key: _cache_row(key, {"records": {"title": "Deep learning"}})),
            ("title", lambda key: _cache_row(key, {"records": ["Deep learning"]})),
            ("title", lambda key: _cache_row(key, {"status": "unavailable"})),
            ("title", lambda key: _cache_row(key, [])),
            ("doi", lambda key: _cache_row(key, "not_found")),
            ("doi", lambda key: _cache_row([key], {"status": "not_found"})),
            ("doi", lambda key: {"key": key, "stored_at": "now", "payload": {"status": "not_found"}}),
            ("doi", lambda key: {**_cache_row(key, {"status": "not_found"}), "stored_at": math.inf}),
            ("doi", lambda key: {**_cache_row(key, {"status": "not_found"}), "stored_at": 10**400}),
            ("doi", lambda key: {**_cache_row(key, {"status": "not_found"}), "stored_at": 1e300}),
            ("doi", lambda key: {"key": key, "stored_at": _NOW}),
            ("doi", lambda key: [key, _NOW, {"status": "not_found"}]),
        ],
        ids=[
            "record-title-not-a-string",
            "record-year-not-a-number",
            "record-authors-not-a-list",
            "record-author-without-surname",
            "record-identifier-without-value",
            "record-identifier-kind-unknown",
            "found-without-record",
            "record-not-an-object",
            "unknown-status",
            "status-not-a-string",
            "unavailable",
            "unavailable-cause-not-a-string",
            "search-records-not-a-list",
            "search-record-not-an-object",
            "search-unavailable",
            "search-payload-a-list",
            "payload-not-an-object",
            "key-not-a-string",
            "stored-at-not-a-number",
            "stored-at-infinite",
            "stored-at-too-large-for-a-float",
            "stored-at-in-the-future",
            "row-without-payload",
            "row-not-an-object",
        ],
    )
    def test_row_that_does_not_decode_is_a_miss(self, op, row, online, tmp_path, capsys):
        # The DOI row is read for the citation with its DOI; the title row
        # for the citation without one, which goes to title search. The
        # row's key is the one a fresh run writes for that op.
        citation = f"{_LECUN} doi:{_LECUN_DOI}" if op == "doi" else _LECUN
        expected = self._classify(citation, online, capsys)
        fresh = tmp_path / "fresh.jsonl"
        assert self._classify(citation, online, capsys, fresh) == expected
        written = {r["key"]: r["payload"] for r in _rows(fresh)}
        (key,) = [k for k in written if _OP_KEYS[op] in k]

        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps(row(key)) + "\n", encoding="utf-8")
        assert self._classify(citation, online, capsys, cache) == expected
        appended = {r["key"]: r["payload"] for r in _rows(cache)[1:]}
        assert appended[key] == written[key]

    def test_record_without_provider_is_credited_to_the_provider(
        self, online, tmp_path, capsys
    ):
        # As in a fixture file, "provider" may be left out of a record.
        citation = f"{_LECUN} doi:{_LECUN_DOI}"
        expected = self._classify(citation, online, capsys)
        cache = tmp_path / "cache.jsonl"
        self._classify(citation, online, capsys, cache)
        (row,) = _rows(cache)
        del row["payload"]["records"][0]["provider"]
        cache.write_text(json.dumps(row) + "\n", encoding="utf-8")
        sent = len(online.session.requests)
        assert self._classify(citation, online, capsys, cache) == expected
        assert len(_rows(cache)) == 1
        assert len(online.session.requests) == sent


class TestCacheEnvironment:
    def test_env_variable_supplies_cache_path(self, online, capsys, tmp_path, monkeypatch):
        # The variable is set after citeaudit.cli was imported: it is read
        # when the command runs.
        cache = tmp_path / "lookups.jsonl"
        monkeypatch.setenv("CITE_AUDIT_CACHE", str(cache))
        main(["classify", _LECUN, *online.args])
        first = capsys.readouterr().out
        assert cache.exists() and cache.stat().st_size > 0
        sent = len(online.session.requests)
        main(["classify", _LECUN, *online.args])
        assert capsys.readouterr().out == first
        assert len(online.session.requests) == sent

    def test_cache_flag_beats_env_variable(self, online, capsys, tmp_path, monkeypatch):
        env_cache, flag_cache = tmp_path / "env.jsonl", tmp_path / "flag.jsonl"
        monkeypatch.setenv("CITE_AUDIT_CACHE", str(env_cache))
        main(["classify", _LECUN, *online.args, "--cache", str(flag_cache)])
        assert flag_cache.stat().st_size > 0
        assert not env_cache.exists()
        # An empty --cache turns the variable's cache off.
        sent = len(online.session.requests)
        main(["classify", _LECUN, *online.args, "--cache", ""])
        assert len(online.session.requests) > sent
        assert not env_cache.exists()


class TestUnwritableCache:
    def test_cache_under_a_file_is_a_usage_error_before_any_request(
        self, online, tmp_path, capsys
    ):
        # Found answers would be written from a lane thread; the path is
        # opened for append at start instead, so the run never begins.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        cache = blocker / "cache.jsonl"
        citation = f"{_LECUN} doi:{_LECUN_DOI}"
        assert main(["classify", citation, *online.args, "--cache", str(cache)]) == EXIT_USAGE
        assert str(cache) in capsys.readouterr().err
        assert online.session.requests == []


class TestUnwritableOut:
    def test_out_in_a_missing_directory_fails_before_any_lookup(
        self, fixtures_path, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("classify_batch ran")

        monkeypatch.setattr(cli, "classify_batch", never)
        out = tmp_path / "missing" / "report.json"
        args = ["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path]
        assert main([*args, "--out", str(out)]) == EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_is_not_truncated_when_the_run_fails(self, fixtures_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n", encoding="utf-8")
        bad = tmp_path / "refs.txt"
        bad.write_bytes(b"\xff\xfe[1] A. Author. Title. 2020.\n")
        assert main(["verify", str(bad), "--fixtures", fixtures_path, "--out", str(out)]) == EXIT_USAGE
        assert out.read_text(encoding="utf-8") == "earlier report\n"


class TestFixtureRunsOpenNoCache:
    """Fixtures are read in place: a --fixtures run neither writes nor reads
    the lookup cache, so a fixture's answers never become evidence for a
    later network run."""

    def test_fixture_answers_do_not_condemn_a_later_online_run(
        self, tmp_path, monkeypatch, capsys
    ):
        citation = f"{_LECUN} doi:{_LECUN_DOI}"
        cache = tmp_path / "c.jsonl"
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps({"closed_world": True, "outcomes": {}}), encoding="utf-8")
        code = main(["classify", citation, "--fixtures", str(closed), "--cache", str(cache)])
        assert code == EXIT_HALLUCINATED
        assert not cache.exists()
        # Every endpoint is down: each request is refused, as the transport's is.
        monkeypatch.setattr(
            resolve_module, "_new_session", lambda: ReplySession(ConnectionRefusedError())
        )
        ini = _provider_ini(tmp_path, "http://127.0.0.1:9")
        capsys.readouterr()
        code = main(["classify", citation, "--config", ini, "--cache", str(cache)])
        assert code == EXIT_UNVERIFIABLE
        assert "UNVERIFIABLE" in capsys.readouterr().out

    def test_fixture_run_ignores_the_cache_environment(
        self, fixtures_path, tmp_path, monkeypatch, capsys
    ):
        # A cache file that is not UTF-8 is a usage error where it is opened.
        cache = tmp_path / "lookups.jsonl"
        cache.write_bytes(b"\xff\xfe{}\n")
        monkeypatch.setenv("CITE_AUDIT_CACHE", str(cache))
        code = main(["verify", str(DATA / "exemplars.txt"), "--fixtures", fixtures_path])
        assert code == EXIT_HALLUCINATED
        assert cache.read_bytes() == b"\xff\xfe{}\n"


# --- exit-code contract ------------------------------------------------------

def _verdict(status: VerdictStatus) -> Verdict:
    if status is VerdictStatus.VERIFIED:
        return Verdict(
            status=status, citation_key="k", matched_record=make_record()
        )
    if status is VerdictStatus.HALLUCINATED:
        return Verdict(
            status=status,
            citation_key="k",
            primary=FailureMode.TF,
            secondary=FailureMode.SH,
        )
    return Verdict(status=status, citation_key="k", cause="offline")


class TestExitCodeContract:
    def test_empty_input_is_ok(self):
        assert exit_code_for([]) == EXIT_OK

    @given(st.lists(st.sampled_from(list(VerdictStatus)), max_size=12))
    def test_priority_rule(self, statuses):
        code = exit_code_for([_verdict(s) for s in statuses])
        if VerdictStatus.HALLUCINATED in statuses:
            assert code == EXIT_HALLUCINATED
        elif VerdictStatus.UNVERIFIABLE in statuses:
            assert code == EXIT_UNVERIFIABLE
        else:
            assert code == EXIT_OK


class TestReportAssembly:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_report("x", [], [_verdict(VerdictStatus.VERIFIED)])

    def test_unknown_format_rejected(self):
        report = build_report("x", [], [])
        with pytest.raises(ValueError):
            render_report(report, "xml")
