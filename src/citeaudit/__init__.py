"""Citation verification toolkit.

Parses reference lists, resolves each claimed citation against
bibliographic sources, and labels failures with a compound taxonomy:
TF total fabrication, PAC partial attribute corruption, IH identifier
hijacking, SH semantic hallucination, PH placeholder hallucination.
"""
from .analytics import (
    CodedRow,
    CorpusError,
    DistributionSummary,
    load_corpus,
    parse_corpus,
    render_summary,
    summarize,
)
from .classify import ClassifierConfig, classify_batch
from .data import (
    load_packaged_corpus,
    load_packaged_vocab,
    packaged_fixture_provider,
)
from .identifiers import extract_identifiers, make_identifier, scan_placeholders
from .matching import (
    MatchThresholds,
    author_similarity,
    best_candidate,
    build_vocab,
    levenshtein,
    profile_match,
    title_plausibility,
    title_similarity,
)
from .model import (
    AuthorName,
    EvidenceItem,
    FailureMode,
    FieldMatch,
    FieldMatchProfile,
    Identifier,
    IdentifierKind,
    IdentifierSyntax,
    ParsedCitation,
    ParseWarning,
    ResolvedRecord,
    Span,
    Verdict,
    VerdictStatus,
    normalize_name,
)
from .parsing import ParseReport, detect_format, parse_file, parse_text
from .ratelimit import TokenBucket
from .report import build_report, exit_code_for, render_report
from .resolve import (
    ArxivClient,
    CrossrefClient,
    FixtureProvider,
    LookupCache,
    LookupOutcome,
    LookupStatus,
    OpenAlexClient,
    ProviderConfig,
    ResolutionBundle,
    Resolver,
    SearchOutcome,
)

__version__ = "0.1.0"

__all__ = [
    "ArxivClient",
    "AuthorName",
    "ClassifierConfig",
    "CodedRow",
    "CorpusError",
    "CrossrefClient",
    "DistributionSummary",
    "EvidenceItem",
    "FailureMode",
    "FieldMatch",
    "FieldMatchProfile",
    "FixtureProvider",
    "Identifier",
    "IdentifierKind",
    "IdentifierSyntax",
    "LookupCache",
    "LookupOutcome",
    "LookupStatus",
    "MatchThresholds",
    "OpenAlexClient",
    "ParseReport",
    "ParseWarning",
    "ParsedCitation",
    "ProviderConfig",
    "ResolutionBundle",
    "ResolvedRecord",
    "Resolver",
    "SearchOutcome",
    "Span",
    "TokenBucket",
    "Verdict",
    "VerdictStatus",
    "author_similarity",
    "best_candidate",
    "build_report",
    "build_vocab",
    "classify_batch",
    "detect_format",
    "exit_code_for",
    "extract_identifiers",
    "levenshtein",
    "load_corpus",
    "load_packaged_corpus",
    "load_packaged_vocab",
    "make_identifier",
    "normalize_name",
    "packaged_fixture_provider",
    "parse_corpus",
    "parse_file",
    "parse_text",
    "profile_match",
    "render_report",
    "render_summary",
    "scan_placeholders",
    "summarize",
    "title_plausibility",
    "title_similarity",
]
