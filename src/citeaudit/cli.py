"""Command-line front end: verify, classify, stats.

Exit codes: 0 everything verified, 1 hallucinations found, 2 unverifiable
results only, 3 usage or I/O errors.
"""
from __future__ import annotations

import configparser
import sys
from pathlib import Path

import click

from . import __version__
from .analytics import CorpusError, load_corpus, render_summary, summarize
from .classify import ClassifierConfig, classify_batch
from .data import load_packaged_corpus, load_packaged_vocab
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


def _read_ini(path: str | None) -> configparser.ConfigParser:
    # No key interpolates: a value is read as written, so a URL may hold %7E.
    parser = configparser.ConfigParser(interpolation=None)
    if path:
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise click.UsageError(f"config file {path}: {exc}") from exc
        if not read:
            raise click.UsageError(f"config file not readable: {path}")
    # A misspelt section would be ignored with all its keys, as a key would.
    for section in parser.sections():
        provider = section.removeprefix("provider.")
        if provider != section and provider not in _DEFAULT_PROVIDERS:
            raise click.UsageError(f"[{section}]: unknown provider {provider!r}")
        if provider == section and section != "classifier":
            raise click.UsageError(
                f"[{section}]: unknown section; expected [classifier] or [provider.<name>]"
            )
    return parser


def _section(ini: configparser.ConfigParser, name: str, schema: dict) -> dict:
    """The typed values of one INI section, by key."""
    if not ini.has_section(name):
        return {}
    sec = ini[name]
    getters = {str: sec.get, float: sec.getfloat, int: sec.getint, bool: sec.getboolean}
    values = {}
    for key in sec:
        if key not in schema:
            raise click.UsageError(f"[{name}] {key}: unknown key")
        try:
            values[key] = getters[schema[key]](key)
        except ValueError as exc:
            raise click.UsageError(f"[{name}] {key}: {exc}") from exc
    return values


def _provider_config(name: str, ini: configparser.ConfigParser) -> ProviderConfig | None:
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
        raise click.UsageError(f"[{section}] {exc}") from exc
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
        raise click.UsageError("--offline requires --fixtures PATH")
    ini = _read_ini(config)
    classifier = _section(ini, "classifier", _CLASSIFIER_KEYS)
    classifier.update(
        {key: overrides[key] for key in _THRESHOLD_KEYS if overrides.get(key) is not None}
    )
    if vocab:
        try:
            vocab_text = Path(vocab).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise click.UsageError(f"vocab file {vocab}: not UTF-8 text: {exc}") from exc
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
        raise click.UsageError(str(exc)) from exc
    # Every provider section is checked, even when fixtures stand in for them.
    provider_configs = {name: _provider_config(name, ini) for name in _DEFAULT_PROVIDERS}

    if fixtures:
        try:
            providers = [FixtureProvider(fixtures)]
        except ValueError as exc:  # the file is not a UTF-8 JSON object
            raise click.UsageError(str(exc)) from exc
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
            raise click.UsageError(f"cache file {cache}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise click.UsageError(f"cache file {cache}: not writable: {exc}") from exc
    resolver = Resolver(providers, thresholds=thresholds, cache=lookup_cache)
    return resolver, classifier_config


def _final_exit(verdicts, fail_on: str) -> int:
    code = exit_code_for(verdicts)
    if fail_on == "unverifiable" and code == EXIT_UNVERIFIABLE:
        return EXIT_HALLUCINATED
    return code


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _runtime_options(fn):
    decorators = [
        click.option("--offline", is_flag=True, help="Never touch the network; requires --fixtures."),
        click.option("--fixtures", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON fixture file standing in for all providers."),
        click.option("--cache", envvar="CITE_AUDIT_CACHE", type=click.Path(dir_okay=False), default=None, help="JSONL cache of network lookups (env: CITE_AUDIT_CACHE). Rows are keyed by provider and endpoint; rows from older versions are fetched again. Not opened with --fixtures."),
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="INI file with [provider.*] and [classifier] sections."),
        click.option("--vocab", type=click.Path(exists=True, dir_okay=False), default=None, help="Newline-delimited token file for plausibility scoring."),
        click.option("--title-strong", type=float, default=None, help="Override strong-title threshold."),
        click.option("--author-strong", type=float, default=None, help="Override strong-author threshold."),
        click.option("--year-slack", type=int, default=None, help="Override allowed year difference."),
        click.option("--plausibility", type=float, default=None, help="Override plausibility threshold."),
        click.option("--fail-on", type=click.Choice(["hallucinated", "unverifiable"]), default="hallucinated", show_default=True, help="Treat unverifiable results as failures too."),
    ]
    for decorator in reversed(decorators):
        fn = decorator(fn)
    return fn


def _runtime(opts: dict):
    """_build_runtime called with the options _runtime_options declares."""
    return _build_runtime(
        opts["offline"],
        opts["fixtures"],
        opts["cache"],
        opts["config_path"],
        opts["vocab"],
        {key: opts[key] for key in _THRESHOLD_KEYS},
    )


@click.group()
@click.version_option(version=__version__, prog_name="citeaudit")
def cli() -> None:
    """Detect fabricated bibliography entries by checking them against
    scholarly metadata sources."""


@cli.command("verify")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--input-format",
    type=click.Choice(["auto", "bibtex", "plaintext"]),
    default="auto",
    show_default=True,
)
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
)
@click.option("--jobs", type=click.IntRange(min=1), default=4, show_default=True, help="Requests each provider may have in flight at once; lookups are planned and verdicts made on the main thread.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
@_runtime_options
def cmd_verify(
    input_file: str,
    input_format: str,
    output_format: str,
    jobs: int,
    out: str | None,
    **opts,
) -> int:
    """Verify every reference in a .bib or .txt bibliography."""
    resolver, classifier_config = _runtime(opts)
    try:
        parse_report = parse_file(input_file, format=input_format)
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{input_file}: not UTF-8 text: {exc}") from exc
    for warning in parse_report.warnings:
        click.echo(f"warning: {warning}", err=True)
    verdicts = classify_batch(
        parse_report.citations, resolver, classifier_config, jobs=jobs
    )
    report = build_report(input_file, parse_report.citations, verdicts)
    _emit(render_report(report, output_format), out)
    return _final_exit(verdicts, opts["fail_on"])


@cli.command("classify")
@click.argument("citation_text")
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
)
@_runtime_options
def cmd_classify(citation_text: str, output_format: str, **opts) -> int:
    """Classify one plain-text citation given as an argument."""
    if not citation_text.strip():
        raise click.UsageError("citation text must not be empty")
    resolver, classifier_config = _runtime(opts)
    parse_report = parse_text(citation_text, format="plaintext")
    citations = list(parse_report.citations)[:1]
    verdicts = classify_batch(citations, resolver, classifier_config, jobs=1)
    report = build_report("<argument>", citations, verdicts)
    _emit(render_report(report, output_format), None)
    return _final_exit(verdicts, opts["fail_on"])


@cli.command("stats")
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["text", "csv", "json"]),
    default="text",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the summary here instead of stdout.")
def cmd_stats(corpus: str | None, output_format: str, out: str | None) -> int:
    """Summarize a coded corpus CSV (defaults to the bundled dataset)."""
    try:
        rows = load_corpus(corpus) if corpus else load_packaged_corpus()
    except CorpusError as exc:
        for message in exc.errors:
            click.echo(f"error: {message}", err=True)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"corpus file {corpus}: not UTF-8 text: {exc}") from exc
    if not rows:
        click.echo("error: corpus has no rows", err=True)
        return EXIT_USAGE
    _emit(render_summary(summarize(rows), output_format), out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        result = cli.main(args=argv, prog_name="citeaudit", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
