"""Proactive content-owner defense simulation (§6, future work).

The paper's conclusions propose a defense the authors leave unexplored:
a content producer "could preemptively post comments within Dissenter for
the content they own to overwhelm the conversation with positive
comments", shaping how the hidden discussion reads.

This module simulates that defense over a crawled corpus and quantifies
its effect: for a chosen set of URLs, inject ``flood_factor`` benign
comments per existing comment (as the owner would), then measure the
thread-level toxicity statistics a Dissenter reader experiences before
and after, and the cost (comments the owner must write).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring import ScoreStore
from repro.store import CorpusStore

__all__ = ["DefenseOutcome", "simulate_preemptive_defense"]

# A small rotation of owner-written positive comments.  Deliberately
# bland: the defense works by volume, not eloquence.
_OWNER_COMMENTS: tuple[str, ...] = (
    "thanks for reading the article we hope it was interesting",
    "we welcome thoughtful discussion about this story",
    "more reporting on this topic is available on our site",
    "we appreciate every reader who takes the time to comment",
    "this piece is part of our continuing coverage of the issue",
)


@dataclass(frozen=True)
class DefenseOutcome:
    """Before/after effect of the pre-emptive flood."""

    urls_defended: int
    injected_comments: int
    mean_toxicity_before: float
    mean_toxicity_after: float
    median_toxicity_before: float
    median_toxicity_after: float
    top_slot_toxic_before: float    # fraction of threads whose first-screen
    top_slot_toxic_after: float     # (first 10) comments avg above 0.5

    @property
    def mean_reduction(self) -> float:
        return self.mean_toxicity_before - self.mean_toxicity_after

    @property
    def cost_per_point(self) -> float:
        """Owner comments written per 0.01 mean-toxicity reduction."""
        reduction = self.mean_reduction
        if reduction <= 0:
            return float("inf")
        return self.injected_comments / (reduction * 100)


def simulate_preemptive_defense(
    result: CorpusStore,
    target_urls: list[str] | None = None,
    flood_factor: float = 1.0,
    store: ScoreStore | None = None,
    seed: int = 0,
) -> DefenseOutcome:
    """Simulate the §6 defense on a crawled corpus.

    Args:
        result: crawl corpus (not mutated).
        target_urls: commenturl-ids to defend; defaults to every URL with
            at least one comment.
        flood_factor: owner comments injected per existing comment
            (1.0 doubles the thread).
        store: shared score store (ideally pre-populated by the
            pipeline's scoring pass).
        seed: RNG seed for the owner-comment rotation and thread order.

    Returns:
        :class:`DefenseOutcome` with before/after statistics.
    """
    if flood_factor < 0:
        raise ValueError("flood_factor must be non-negative")
    store = store or ScoreStore()
    rng = np.random.default_rng(seed)
    by_url = result.comments_by_url()
    targets = target_urls if target_urls is not None else [
        url_id for url_id, comments in by_url.items() if comments
    ]

    owner_scores = store.attribute_values(
        _OWNER_COMMENTS, "SEVERE_TOXICITY"
    ).tolist()

    before_means, after_means = [], []
    before_medians, after_medians = [], []
    before_top_toxic, after_top_toxic = [], []
    injected_total = 0

    for url_id in targets:
        comments = by_url.get(url_id, [])
        if not comments:
            continue
        scores = store.attribute_values(
            [c.text for c in comments], "SEVERE_TOXICITY"
        )
        n_injected = int(round(flood_factor * len(comments)))
        injected_total += n_injected
        injected = np.asarray([
            owner_scores[int(rng.integers(0, len(owner_scores)))]
            for _ in range(n_injected)
        ])
        combined = np.concatenate([scores, injected])

        before_means.append(float(scores.mean()))
        after_means.append(float(combined.mean()))
        before_medians.append(float(np.median(scores)))
        after_medians.append(float(np.median(combined)))

        # First-screen experience: the owner posts *pre-emptively*, so the
        # injected comments are older and sort first.
        top_before = scores[:10]
        top_after = np.concatenate([injected, scores])[:10]
        before_top_toxic.append(float(top_before.mean() > 0.5))
        after_top_toxic.append(float(top_after.mean() > 0.5))

    if not before_means:
        raise ValueError("no commented URLs to defend")

    return DefenseOutcome(
        urls_defended=len(before_means),
        injected_comments=injected_total,
        mean_toxicity_before=float(np.mean(before_means)),
        mean_toxicity_after=float(np.mean(after_means)),
        median_toxicity_before=float(np.mean(before_medians)),
        median_toxicity_after=float(np.mean(after_medians)),
        top_slot_toxic_before=float(np.mean(before_top_toxic)),
        top_slot_toxic_after=float(np.mean(after_top_toxic)),
    )
