"""Citation verification toolkit.

Parses reference lists, resolves each claimed citation against
bibliographic sources, and labels failures with a compound taxonomy:
TF total fabrication, PAC partial attribute corruption, IH identifier
hijacking, SH semantic hallucination, PH placeholder hallucination.

Every public name is imported from its module on first access (PEP 562),
so a command loads only the modules it runs.
"""

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "analytics": (
            "CodedRow", "CorpusError", "DistributionSummary", "load_corpus",
            "parse_corpus", "render_summary", "summarize",
        ),
        "classify": ("ClassifierConfig", "classify_batch"),
        "data": ("load_packaged_corpus", "load_packaged_vocab", "packaged_fixture_provider"),
        "identifiers": ("extract_identifiers", "make_identifier", "scan_placeholders"),
        "matching": (
            "MatchThresholds", "author_similarity", "best_candidate", "build_vocab",
            "levenshtein", "profile_match", "title_plausibility", "title_similarity",
        ),
        "model": (
            "AuthorName", "EvidenceItem", "FailureMode", "FieldMatch", "FieldMatchProfile",
            "Identifier", "IdentifierKind", "IdentifierSyntax", "ParsedCitation",
            "ParseWarning", "ResolvedRecord", "Span", "Verdict", "VerdictStatus",
            "normalize_name",
        ),
        "parsing": ("ParseReport", "detect_format", "parse_file", "parse_text"),
        "ratelimit": ("TokenBucket",),
        "report": ("build_report", "exit_code_for", "render_report"),
        "resolve": (
            "ArxivClient", "CrossrefClient", "FixtureProvider", "LookupCache",
            "LookupOutcome", "LookupStatus", "OpenAlexClient", "ProviderConfig",
            "ResolutionBundle", "Resolver",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
