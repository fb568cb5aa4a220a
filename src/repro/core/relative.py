"""Cross-platform comparisons (§4.4, Table 3, Figures 6-7).

Three analyses:

* :func:`baseline_overview` — Table 3: corpus sizes and the number of
  Dissenter-matched Reddit commenters.
* :func:`comment_ratios` — Fig. 6: the per-user d/(d+r) Dissenter-to-
  Reddit comment ratio for users active on at least one platform.
* :func:`relative_toxicity` — Fig. 7: Perspective score CDFs for
  Dissenter vs Reddit vs NY Times vs Daily Mail on LIKELY_TO_REJECT,
  SEVERE_TOXICITY and ATTACK_ON_AUTHOR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.scoring import ScoreStore
from repro.crawler.reddit_crawl import RedditMatchResult
from repro.stats.distributions import ECDF
from repro.store import CorpusStore, columns_of

__all__ = [
    "BaselineOverview",
    "CommentRatioAnalysis",
    "FIG7_ATTRIBUTES",
    "RelativeToxicity",
    "baseline_overview",
    "comment_ratios",
    "relative_toxicity",
]

FIG7_ATTRIBUTES = ("LIKELY_TO_REJECT", "SEVERE_TOXICITY", "ATTACK_ON_AUTHOR")


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


@dataclass
class BaselineOverview:
    """Table 3's rows."""

    nytimes_comments: int
    dailymail_comments: int
    reddit_comments: int
    reddit_matched_users: int
    reddit_matched_commenters: int


def baseline_overview(
    reddit: RedditMatchResult,
    nytimes_count: int,
    dailymail_count: int,
) -> BaselineOverview:
    """Assemble Table 3 from the Reddit match and corpus sizes."""
    return BaselineOverview(
        nytimes_comments=nytimes_count,
        dailymail_comments=dailymail_count,
        reddit_comments=reddit.total_comments,
        reddit_matched_users=len(reddit.matched_usernames),
        reddit_matched_commenters=len(reddit.commenters()),
    )


# ---------------------------------------------------------------------------
# Fig. 6 — comment ratios.
# ---------------------------------------------------------------------------


@dataclass
class CommentRatioAnalysis:
    """Fig. 6's d/(d+r) sample."""

    ratios: np.ndarray
    dissenter_exclusive: float       # ratio == 1
    reddit_exclusive: float          # ratio == 0
    n_users: int = 0

    def ecdf(self) -> ECDF:
        return ECDF(self.ratios)


def comment_ratios(
    result: CorpusStore, reddit: RedditMatchResult
) -> CommentRatioAnalysis:
    """Per-user Dissenter/(Dissenter+Reddit) comment ratios.

    Only usernames that matched on Reddit and commented on at least one
    platform contribute (the ratio is otherwise undefined, §4.4.1).
    """
    dissenter_counts: dict[str, int] = {}
    by_author = result.comments_by_author()
    for user in result.users.values():
        dissenter_counts[user.username] = len(by_author.get(user.author_id, []))

    ratios: list[float] = []
    for username in reddit.matched_usernames:
        d = dissenter_counts.get(username, 0)
        r = reddit.comment_counts.get(username, 0)
        if d + r == 0:
            continue
        ratios.append(d / (d + r))
    arr = np.asarray(ratios)
    if arr.size == 0:
        raise ValueError("no users with activity on either platform")
    return CommentRatioAnalysis(
        ratios=arr,
        dissenter_exclusive=float((arr == 1.0).mean()),
        reddit_exclusive=float((arr == 0.0).mean()),
        n_users=int(arr.size),
    )


# ---------------------------------------------------------------------------
# Fig. 7 — relative toxicity.
# ---------------------------------------------------------------------------


@dataclass
class RelativeToxicity:
    """Fig. 7's score samples: attribute -> dataset -> scores."""

    scores: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def ecdf(self, attribute: str, dataset: str) -> ECDF:
        return ECDF(self.scores[attribute][dataset])

    def exceed_fraction(
        self, attribute: str, dataset: str, threshold: float
    ) -> float:
        values = self.scores[attribute][dataset]
        if values.size == 0:
            return 0.0
        return float((values >= threshold).mean())

    def datasets(self) -> list[str]:
        first = next(iter(self.scores.values()))
        return list(first)


def relative_toxicity(
    corpus: CorpusStore,
    baseline_texts: Mapping[str, Sequence[str]],
    store: ScoreStore | None = None,
    max_sample: int = 20_000,
) -> RelativeToxicity:
    """Score all corpora on the Fig. 7 attributes.

    Args:
        corpus: the sealed Dissenter corpus; its column view's memoised
            score rows serve the dissenter sample.
        baseline_texts: {"reddit"|"nytimes"|"dailymail": texts}.
        store: shared score store (ideally pre-populated by the
            pipeline's scoring pass).
        max_sample: per-dataset cap (deterministic prefix).
    """
    store = store or ScoreStore()
    rows_by_corpus: dict[str, list] = {
        "dissenter": columns_of(corpus).score_rows(store)[:max_sample]
    }
    for name, texts in baseline_texts.items():
        rows_by_corpus[name] = store.score_many(list(texts)[:max_sample])

    analysis = RelativeToxicity()
    for attribute in FIG7_ATTRIBUTES:
        analysis.scores[attribute] = {
            name: np.asarray([row[attribute] for row in rows])
            for name, rows in rows_by_corpus.items()
        }
    return analysis
