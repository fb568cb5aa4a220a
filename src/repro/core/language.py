"""Comment language identification (§4.2.3).

Classifies every crawled comment with the character-n-gram language
identifier; the paper finds 94% English and 2% German, with German's
prominence matching .de's rank among TLDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nlp.langid import LanguageIdentifier, default_language_identifier
from repro.store import CorpusStore

__all__ = ["LanguageAnalysis", "analyze_languages"]


@dataclass
class LanguageAnalysis:
    """Language mix of the comment corpus."""

    total: int
    counts: dict[str, int] = field(default_factory=dict)

    def fraction(self, language: str) -> float:
        return self.counts.get(language, 0) / self.total if self.total else 0.0

    def ranked(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda item: -item[1])


def analyze_languages(
    result: CorpusStore,
    identifier: LanguageIdentifier | None = None,
) -> LanguageAnalysis:
    """Classify every comment's language."""
    identifier = identifier or default_language_identifier()
    analysis = LanguageAnalysis(total=len(result.comments))
    for comment in result.comments.values():
        language = identifier.classify(comment.text)
        analysis.counts[language] = analysis.counts.get(language, 0) + 1
    return analysis
