"""Command-line front end: verify, classify, stats.

Exit codes: 0 everything verified, 1 hallucinations found, 2 unverifiable
results only, 3 usage or I/O errors.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .classify import ClassifierConfig, classify_batch
from .data import load_packaged_vocab
from .matching import MatchThresholds
from .parsing import parse_file, parse_text
from .report import (
    EXIT_HALLUCINATED,
    EXIT_UNVERIFIABLE,
    EXIT_USAGE,
    build_report,
    exit_code_for,
    render_report,
)
from .resolve import (
    ArxivClient,
    CrossrefClient,
    FixtureProvider,
    LookupCache,
    OpenAlexClient,
    ProviderConfig,
    Resolver,
)

if TYPE_CHECKING:
    import configparser


class UsageError(Exception):
    """A bad argument, option, config or input file: exit 3, with the
    message on stderr."""


_DEFAULT_PROVIDERS = {
    "crossref": ProviderConfig(
        name="crossref", base_endpoint="https://api.crossref.org", rate_limit=5.0
    ),
    "arxiv": ProviderConfig(
        name="arxiv",
        base_endpoint="https://export.arxiv.org/api/query",
        rate_limit=0.33,
    ),
    "openalex": ProviderConfig(
        name="openalex", base_endpoint="https://api.openalex.org", rate_limit=5.0
    ),
}
_CLIENTS = {"crossref": CrossrefClient, "arxiv": ArxivClient, "openalex": OpenAlexClient}

# Keys each INI section may hold, with their types. Every threshold is also
# a flag of the same name; a key not listed here is a usage error, so a typo
# or a retired key cannot be silently ignored. The matching keys build the
# resolver's MatchThresholds; the other [classifier] keys, ClassifierConfig.
_MATCH_KEYS = {"title_strong": float, "author_strong": float, "year_slack": int}
_THRESHOLD_KEYS = {**_MATCH_KEYS, "plausibility": float}
_CLASSIFIER_KEYS = {**_THRESHOLD_KEYS, "sh_requires_real_author": bool}
_PROVIDER_KEYS = {"endpoint": str, "rate_limit": float, "timeout": float, "enabled": bool}


def _read_ini(path: str | None) -> configparser.ConfigParser | None:
    """The config file's sections, or None when no file is given."""
    if not path:
        return None
    import configparser

    # No key interpolates: a value is read as written, so a URL may hold %7E.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"config file not readable: {path}")
    # A misspelt section would be ignored with all its keys, as a key would.
    for section in parser.sections():
        provider = section.removeprefix("provider.")
        if provider != section and provider not in _DEFAULT_PROVIDERS:
            raise UsageError(f"[{section}]: unknown provider {provider!r}")
        if provider == section and section != "classifier":
            raise UsageError(
                f"[{section}]: unknown section; expected [classifier] or [provider.<name>]"
            )
    return parser


def _section(ini: configparser.ConfigParser | None, name: str, schema: dict) -> dict:
    """The typed values of one INI section, by key."""
    if ini is None or not ini.has_section(name):
        return {}
    sec = ini[name]
    getters = {str: sec.get, float: sec.getfloat, int: sec.getint, bool: sec.getboolean}
    values = {}
    for key in sec:
        if key not in schema:
            raise UsageError(f"[{name}] {key}: unknown key")
        try:
            values[key] = getters[schema[key]](key)
        except ValueError as exc:
            raise UsageError(f"[{name}] {key}: {exc}") from exc
    return values


def _provider_config(name: str, ini: configparser.ConfigParser | None) -> ProviderConfig | None:
    """The provider's settings, or None when its section says enabled = false."""
    base = _DEFAULT_PROVIDERS[name]
    section = f"provider.{name}"
    values = _section(ini, section, _PROVIDER_KEYS)
    try:
        config = ProviderConfig(
            name=name,
            base_endpoint=values.get("endpoint", base.base_endpoint),
            rate_limit=values.get("rate_limit", base.rate_limit),
            timeout=values.get("timeout", base.timeout),
        )
    except ValueError as exc:
        raise UsageError(f"[{section}] {exc}") from exc
    return config if values.get("enabled", True) else None


def _build_runtime(
    offline: bool,
    fixtures: str | None,
    cache: str | None,
    config: str | None,
    vocab: str | None,
    overrides: dict,
):
    if offline and not fixtures:
        raise UsageError("--offline requires --fixtures PATH")
    ini = _read_ini(config)
    classifier = _section(ini, "classifier", _CLASSIFIER_KEYS)
    classifier.update(
        {key: overrides[key] for key in _THRESHOLD_KEYS if overrides.get(key) is not None}
    )
    if vocab:
        try:
            vocab_text = Path(vocab).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise UsageError(f"vocab file {vocab}: not UTF-8 text: {exc}") from exc
        vocab_tokens = frozenset(
            line.strip() for line in vocab_text.splitlines() if line.strip()
        )
    else:
        vocab_tokens = load_packaged_vocab()
    try:
        thresholds = MatchThresholds(
            **{key: value for key, value in classifier.items() if key in _MATCH_KEYS}
        )
        classifier_config = ClassifierConfig(
            vocab=vocab_tokens,
            **{key: value for key, value in classifier.items() if key not in _MATCH_KEYS},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # Every provider section is checked, even when fixtures stand in for them.
    provider_configs = {name: _provider_config(name, ini) for name in _DEFAULT_PROVIDERS}

    if fixtures:
        try:
            providers = [FixtureProvider(fixtures)]
        except ValueError as exc:  # the file is not a UTF-8 JSON object
            raise UsageError(str(exc)) from exc
    else:
        providers = [
            _CLIENTS[name](config) for name, config in provider_configs.items() if config
        ]

    # Fixtures are read in place, so a fixture run opens no cache. A network
    # run opens it for append here: an unwritable path fails at start.
    lookup_cache = None
    if cache and not fixtures:
        try:
            lookup_cache = LookupCache(cache)
            Path(cache).open("a", encoding="utf-8").close()
        except UnicodeDecodeError as exc:
            raise UsageError(f"cache file {cache}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise UsageError(f"cache file {cache}: not writable: {exc}") from exc
    resolver = Resolver(providers, thresholds=thresholds, cache=lookup_cache)
    return resolver, classifier_config


def _final_exit(verdicts, fail_on: str) -> int:
    code = exit_code_for(verdicts)
    if fail_on == "unverifiable" and code == EXIT_UNVERIFIABLE:
        return EXIT_HALLUCINATED
    return code


def _check_out(out: str | None, *read: str | None) -> None:
    """Refuse an --out that names a file the command reads: the report would replace it."""
    for path in filter(None, read if out else ()):
        try:
            same = os.path.samefile(out, path)
        except OSError:  # one of them does not exist yet
            same = Path(out).resolve() == Path(path).resolve()
        if same:
            raise UsageError(f"--out {out}: the command reads this file; it would be overwritten")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


@contextmanager
def _runtime(args: argparse.Namespace):
    """_build_runtime called with the options _runtime_options declares,
    once _check_out has passed: nothing is opened for writing before it.

    What is built by then (modules, the fixture store, the vocabulary)
    lives for the whole command, so the collector's generations are frozen
    until it ends: collections traverse only what the run allocates.
    """
    cache = os.environ.get("CITE_AUDIT_CACHE") if args.cache is None else args.cache
    read = (getattr(args, "input_file", None), args.fixtures, args.config, args.vocab, cache)
    _check_out(getattr(args, "out", None), *read)
    runtime = _build_runtime(
        args.offline,
        args.fixtures,
        cache,
        args.config,
        args.vocab,
        {key: getattr(args, key) for key in _THRESHOLD_KEYS},
    )
    gc.freeze()
    try:
        yield runtime
    finally:
        gc.unfreeze()


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify every reference in a .bib or .txt bibliography."""
    with _runtime(args) as (resolver, classifier_config):
        if args.out:
            # Opened for append, as --cache is: a path that cannot be written
            # fails before any lookup, and an existing report stays whole.
            try:
                Path(args.out).open("a", encoding="utf-8").close()
            except OSError as exc:
                raise UsageError(f"output file {args.out}: not writable: {exc}") from exc
        try:
            parse_report = parse_file(args.input_file, format=args.input_format)
        except UnicodeDecodeError as exc:
            raise UsageError(f"{args.input_file}: not UTF-8 text: {exc}") from exc
        for warning in parse_report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        verdicts = classify_batch(
            parse_report.citations, resolver, classifier_config, jobs=args.jobs
        )
        report = build_report(args.input_file, parse_report.citations, verdicts)
        _emit(render_report(report, args.output_format), args.out)
    return _final_exit(verdicts, args.fail_on)


def cmd_classify(args: argparse.Namespace) -> int:
    """Classify one plain-text citation given as an argument."""
    if not args.citation_text.strip():
        raise UsageError("citation text must not be empty")
    with _runtime(args) as (resolver, classifier_config):
        parse_report = parse_text(args.citation_text, format="plaintext")
        citations = list(parse_report.citations)[:1]
        verdicts = classify_batch(citations, resolver, classifier_config, jobs=1)
        report = build_report("<argument>", citations, verdicts)
        _emit(render_report(report, args.output_format), None)
    return _final_exit(verdicts, args.fail_on)


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a coded corpus CSV (defaults to the bundled dataset)."""
    from .analytics import CorpusError, load_corpus, render_summary, summarize
    from .data import load_packaged_corpus

    _check_out(args.out, args.corpus)
    try:
        rows = load_corpus(args.corpus) if args.corpus else load_packaged_corpus()
    except CorpusError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        raise UsageError(f"corpus file {args.corpus}: not UTF-8 text: {exc}") from exc
    if not rows:
        print("error: corpus has no rows", file=sys.stderr)
        return EXIT_USAGE
    _emit(render_summary(summarize(rows), args.output_format), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise UsageError (exit 3, not argparse's 2),
    with --help as the only help flag and no abbreviated options."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _file(must_exist: bool):
    """An argument type for a file path: present when must_exist, and never
    a directory. An empty optional path stands for none."""

    def check(text: str) -> str:
        if must_exist and not (text and Path(text).exists()):
            raise argparse.ArgumentTypeError(f"{text}: no such file")
        if text and Path(text).is_dir():
            raise argparse.ArgumentTypeError(f"{text}: is a directory")
        return text

    return check


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is less than 1")
    return value


def _format_option(parser: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    parser.add_argument(
        "--format", dest="output_format", choices=choices, default="text",
        help="Report format (default: %(default)s).",
    )


def _runtime_options(parser: argparse.ArgumentParser) -> None:
    """The options verify and classify share."""
    add = parser.add_argument
    add("--offline", action="store_true", help="Require --fixtures, which stand in for every network provider.")
    add("--fixtures", type=_file(True), help="JSON fixture file standing in for all providers.")
    add("--cache", type=_file(False), help="JSONL cache of network lookups (env: CITE_AUDIT_CACHE). Rows are keyed by provider and endpoint; rows from older versions are fetched again. Not opened with --fixtures.")
    add("--config", type=_file(True), help="INI file with [provider.*] and [classifier] sections.")
    add("--vocab", type=_file(True), help="Newline-delimited token file for plausibility scoring.")
    add("--title-strong", type=float, help="Override strong-title threshold.")
    add("--author-strong", type=float, help="Override strong-author threshold.")
    add("--year-slack", type=int, help="Override allowed year difference.")
    add("--plausibility", type=float, help="Override plausibility threshold.")
    add("--fail-on", choices=("hallucinated", "unverifiable"), default="hallucinated", help="Treat unverifiable results as failures too (default: %(default)s).")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citeaudit",
        description="Detect fabricated bibliography entries by checking them"
        " against scholarly metadata sources.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s, version {__version__}",
        help="Show the version and exit.",
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(fn, name: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub

    verify = command(cmd_verify, "verify")
    verify.add_argument("input_file", metavar="INPUT_FILE", type=_file(True))
    verify.add_argument(
        "--input-format", choices=("auto", "bibtex", "plaintext"), default="auto",
        help="Reference list format (default: %(default)s).",
    )
    _format_option(verify, ("text", "json", "csv"))
    verify.add_argument("--jobs", type=_positive_int, default=4, help="Requests each provider may have in flight at once; lookups are planned and verdicts made on the main thread (default: %(default)s).")
    verify.add_argument("--out", type=_file(False), help="Write the report here instead of stdout.")
    _runtime_options(verify)

    classify = command(cmd_classify, "classify")
    classify.add_argument("citation_text", metavar="CITATION_TEXT")
    _format_option(classify, ("text", "json", "csv"))
    _runtime_options(classify)

    stats = command(cmd_stats, "stats")
    stats.add_argument("corpus", metavar="CORPUS", nargs="?", type=_file(True))
    _format_option(stats, ("text", "csv", "json"))
    stats.add_argument("--out", type=_file(False), help="Write the summary here instead of stdout.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code and never raises SystemExit."""
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # --help or --version; bad arguments raise UsageError
            return int(exc.code or 0)
        return args.run(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
