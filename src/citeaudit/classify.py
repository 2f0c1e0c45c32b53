"""Verdict assignment for resolved citations.

A citation that fails verification receives a compound label: a primary
failure mode plus a distinct secondary, because fabricated references
almost never break in just one way. Resolution failures are kept apart
from fabrication: when every lookup was unavailable the verdict is
Unverifiable, never Hallucinated.
"""
from __future__ import annotations

from dataclasses import dataclass

from .identifiers import scan_placeholders
from .matching import (
    MatchThresholds,
    best_candidate,
    profile_match,
    title_plausibility,
)
from .model import (
    EvidenceItem,
    FailureMode,
    FieldMatch,
    ParsedCitation,
    Verdict,
    VerdictStatus,
)
from .resolve import ResolutionBundle, Resolver

# Primary precedence: structural defects outrank relational ones, and total
# fabrication is the default once everything else is ruled out.
PRIMARY_ORDER = (
    FailureMode.PH,
    FailureMode.PAC,
    FailureMode.IH,
    FailureMode.SH,
)

# Secondary precedence when picking among remaining evidence.
SECONDARY_ORDER = (
    FailureMode.SH,
    FailureMode.IH,
    FailureMode.PH,
    FailureMode.PAC,
    FailureMode.TF,
)

# TF evidence, whether observed or the fallback primary. Frozen, so shared.
_TF_EVIDENCE = EvidenceItem(
    mode=FailureMode.TF,
    detail="no source returned a record matching title or authors",
)


@dataclass(frozen=True)
class ClassifierConfig:
    # Vocabulary share at or above which a title no source knows still reads
    # like a real one: SH evidence rather than TF alone.
    plausibility: float = 0.70
    # Require one claimed author to be a real, findable person before a
    # plausible-but-unresolvable title counts as SH rather than TF.
    sh_requires_real_author: bool = True
    vocab: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.plausibility <= 1.0:
            raise ValueError(f"plausibility must lie in [0, 1], got {self.plausibility}")


def _map_cause(causes: set[str]) -> str:
    if causes == {"offline"}:
        return "offline"
    if causes == {"rate_limited"}:
        return "rate_limited"
    return "provider_unavailable"


def _author_confirmed(citation: ParsedCitation, bundle: ResolutionBundle) -> bool:
    """True when the author-year search surfaced a claimed surname: the
    cited person exists and was active, even though the work was not found."""
    if bundle.author_search is None:
        return False
    surnames = {
        a.surname for a in citation.authors if not a.is_placeholder and a.surname
    }
    return any(
        resolved_author.surname in surnames
        for record in bundle.author_search.records
        for resolved_author in record.authors
    )


def classify(
    citation: ParsedCitation,
    bundle: ResolutionBundle,
    config: ClassifierConfig,
) -> Verdict:
    """Turn one citation's resolution results into a verdict.

    The bundle must have been produced for this citation; a key mismatch is
    a caller bug, not a data condition.
    """
    if bundle.citation_key and bundle.citation_key != citation.source_key:
        raise ValueError(
            f"bundle for {bundle.citation_key!r} passed with citation"
            f" {citation.source_key!r}"
        )
    key = citation.source_key

    attempts = bundle.attempts()
    if attempts and all(unavailable for _, unavailable, _ in attempts):
        causes = {cause for _, _, cause in attempts if cause}
        return Verdict(
            status=VerdictStatus.UNVERIFIABLE,
            citation_key=key,
            cause=_map_cause(causes),
        )

    placeholder_evidence = scan_placeholders(citation)
    if not attempts and not placeholder_evidence:
        # Nothing was resolvable and nothing is structurally wrong; there is
        # no basis for either a pass or a fail.
        return Verdict(
            status=VerdictStatus.UNVERIFIABLE,
            citation_key=key,
            cause="no_resolvable_fields",
        )

    # Every check below reads the resolver's profiles. A bundle built by hand
    # carries none; it is profiled here, under the default thresholds, in the
    # order the resolver would have used.
    identifier_profiles = bundle.identifier_profiles
    search_profiles = bundle.search_profiles
    if bundle.thresholds is None:
        thresholds = MatchThresholds()
        identifier_profiles = tuple(
            (label, record, profile_match(citation, record, thresholds))
            for label, outcome in bundle.identifier_outcomes
            for record in outcome.records
        )
        search_profiles = tuple(
            (record, profile_match(citation, record, thresholds))
            for search in (bundle.title_search, bundle.author_search)
            if search is not None
            for record in search.records
        )

    # Verification gate: a resolved record agrees on author, title, and year,
    # the test the resolver's short circuit applies. The first identifier
    # record that passes it wins; else the closest search record that does.
    verifying = [
        (record, profile)
        for _, record, profile in identifier_profiles
        if profile.core_all_match()
    ][:1] or [pair for pair in search_profiles if pair[1].core_all_match()]
    if verifying:
        return Verdict(
            status=VerdictStatus.VERIFIED,
            citation_key=key,
            matched_record=best_candidate(verifying)[0],
        )
    all_profiles = [
        (record, profile) for _, record, profile in identifier_profiles
    ] + list(search_profiles)

    evidence: list[EvidenceItem] = list(placeholder_evidence)

    # Identifier hijacking: the claimed identifier exists but belongs to a
    # different work.
    for label, record, profile in identifier_profiles:
        if (
            profile.title_match is FieldMatch.MISMATCH
            or profile.author_match is FieldMatch.MISMATCH
        ):
            evidence.append(
                EvidenceItem(
                    mode=FailureMode.IH,
                    detail=(
                        f"{label} resolves to {record.title!r}"
                        f" by different authors"
                        if profile.author_match is FieldMatch.MISMATCH
                        else f"{label} resolves to {record.title!r}"
                    ),
                    field="identifiers",
                    score=round(profile.title_similarity, 4),
                )
            )

    # Partial attribute corruption: a close relative exists but at least one
    # claimed field disagrees with it.
    overall_best = best_candidate(all_profiles)
    if overall_best is not None:
        record, profile = overall_best
        strong = (
            profile.title_match is FieldMatch.MATCH
            or profile.author_match is FieldMatch.MATCH
        )
        mismatched = [
            name
            for name, value in (
                ("title", profile.title_match),
                ("authors", profile.author_match),
                ("year", profile.year_match),
                ("pages", profile.pages_match),
            )
            if value is FieldMatch.MISMATCH
        ]
        if strong and mismatched:
            evidence.append(
                EvidenceItem(
                    mode=FailureMode.PAC,
                    detail=(
                        f"close match {record.title!r} disagrees on "
                        + ", ".join(mismatched)
                    ),
                    field=mismatched[0],
                    score=round(profile.title_similarity, 4),
                )
            )
    strong_match_exists = any(
        profile.title_match is FieldMatch.MATCH
        or profile.author_match is FieldMatch.MATCH
        for _, profile in all_profiles
    )

    # Semantic hallucination: the title reads like a real paper but no
    # source knows it.
    plausibility = title_plausibility(citation.title, config.vocab)
    title_found_anywhere = any(
        profile.title_match is FieldMatch.MATCH for _, profile in all_profiles
    )
    if (
        citation.title.strip()
        and not title_found_anywhere
        and plausibility >= config.plausibility
    ):
        evidence.append(
            EvidenceItem(
                mode=FailureMode.SH,
                detail="plausible title with no matching record in any source",
                field="title",
                score=round(plausibility, 4),
            )
        )

    # Total fabrication: nothing anywhere shares this citation's title or
    # author list.
    if not strong_match_exists:
        evidence.append(_TF_EVIDENCE)

    modes_present = {e.mode for e in evidence}
    # SH leads only when a claimed author is known to exist, if so configured.
    sh_may_lead = not config.sh_requires_real_author or _author_confirmed(citation, bundle)
    primary = next(
        (m for m in PRIMARY_ORDER
         if m in modes_present and (m is not FailureMode.SH or sh_may_lead)),
        FailureMode.TF,
    )
    if primary is FailureMode.TF and FailureMode.TF not in modes_present:
        evidence.append(_TF_EVIDENCE)

    # The secondary is the first candidate that is not the primary: the
    # modes with evidence, then a fallback that carries none.
    candidates = [mode for mode in SECONDARY_ORDER if mode in modes_present]
    if plausibility >= config.plausibility:
        candidates.append(FailureMode.SH)
    if citation.identifiers:
        candidates.append(FailureMode.IH)
    candidates += [FailureMode.PAC, FailureMode.SH]
    secondary = next(mode for mode in candidates if mode is not primary)

    return Verdict(
        status=VerdictStatus.HALLUCINATED,
        citation_key=key,
        primary=primary,
        secondary=secondary,
        evidence=tuple(evidence),
    )


def _internal_error(citation: ParsedCitation, stage: str, exc: Exception) -> Verdict:
    return Verdict(
        status=VerdictStatus.UNVERIFIABLE,
        citation_key=citation.source_key,
        cause=f"internal_error:{stage}:{type(exc).__name__}",
    )


def classify_batch(
    citations,
    resolver: Resolver,
    config: ClassifierConfig,
    jobs: int = 4,
) -> list[Verdict]:
    """Resolve and classify a bibliography, preserving input order.

    Resolver.resolve_all sends up to ``jobs`` requests per provider at once;
    each verdict is made here, on the calling thread, as its bundle arrives.
    A citation whose resolution or classification raises is Unverifiable
    with cause ``internal_error:<stage>:<type>``; the others are unaffected.
    """
    citations = list(citations)
    verdicts = []
    bundles = resolver.resolve_all(citations, jobs)
    for citation, bundle in zip(citations, bundles, strict=True):
        if isinstance(bundle, Exception):
            verdicts.append(_internal_error(citation, "resolve", bundle))
            continue
        try:
            verdicts.append(classify(citation, bundle, config))
        except Exception as exc:  # noqa: BLE001 - one bad citation must not sink the batch
            verdicts.append(_internal_error(citation, "classify", exc))
    return verdicts
