"""Access to the data files shipped inside the package."""
from __future__ import annotations

import json
from importlib.resources import files
from typing import TYPE_CHECKING

from .resolve import FixtureProvider

if TYPE_CHECKING:
    from .analytics import CodedRow


def _packaged(name: str) -> str:
    return (files("citeaudit") / "data" / name).read_text(encoding="utf-8")


def load_packaged_corpus() -> list[CodedRow]:
    """The coded corpus of hallucinated citations bundled with the package."""
    from .analytics import parse_corpus

    return parse_corpus(_packaged("corpus.csv"))


def load_packaged_vocab() -> frozenset[str]:
    """Reference title vocabulary for plausibility scoring."""
    return frozenset(
        line.strip() for line in _packaged("vocab.txt").splitlines() if line.strip()
    )


def packaged_fixture_provider() -> FixtureProvider:
    """Offline provider preloaded with the bundled lookup fixtures."""
    return FixtureProvider(json.loads(_packaged("fixtures.json")), name="fixture")
