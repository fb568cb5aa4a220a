"""Shadow-overlay toxicity (§4.3.1, Figure 4).

Compares Perspective score distributions of NSFW-only and offensive-only
comments against the full corpus for OBSCENE, SEVERE_TOXICITY, and
LIKELY_TO_REJECT.  The paper's findings: "offensive" ≫ NSFW ≫ all, with
80% of offensive comments above 0.95 LIKELY_TO_REJECT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scoring import ScoreStore
from repro.stats.distributions import ECDF
from repro.store import CorpusStore

__all__ = ["ShadowToxicity", "analyze_shadow_toxicity"]

FIG4_ATTRIBUTES = ("LIKELY_TO_REJECT", "OBSCENE", "SEVERE_TOXICITY")


@dataclass
class ShadowToxicity:
    """Figure 4's score samples: attribute -> class -> scores."""

    scores: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def ecdf(self, attribute: str, comment_class: str) -> ECDF:
        return ECDF(self.scores[attribute][comment_class])

    def exceed_fraction(
        self, attribute: str, comment_class: str, threshold: float
    ) -> float:
        values = self.scores[attribute][comment_class]
        if values.size == 0:
            return 0.0
        return float((values > threshold).mean())

    def classes(self) -> list[str]:
        first = next(iter(self.scores.values()))
        return list(first)


def analyze_shadow_toxicity(
    result: CorpusStore,
    store: ScoreStore | None = None,
    max_all_sample: int = 20_000,
) -> ShadowToxicity:
    """Score the three comment classes on the Fig. 4 attributes.

    Args:
        result: crawl corpus with shadow labels applied.
        store: shared score store (ideally pre-populated by the
            pipeline's scoring pass).
        max_all_sample: cap on the "all comments" class (deterministic
            prefix sample) to bound scoring cost at large scales.
    """
    store = store or ScoreStore()
    nsfw = [
        c.text for c in result.comments.values() if c.shadow_label == "nsfw"
    ]
    offensive = [
        c.text
        for c in result.comments.values()
        if c.shadow_label == "offensive"
    ]
    everything = [c.text for c in result.comments.values()][:max_all_sample]

    analysis = ShadowToxicity()
    by_class = {
        "all": store.score_many(everything),
        "nsfw": store.score_many(nsfw),
        "offensive": store.score_many(offensive),
    }
    for attribute in FIG4_ATTRIBUTES:
        analysis.scores[attribute] = {
            cls: np.asarray([row[attribute] for row in rows])
            for cls, rows in by_class.items()
        }
    return analysis
