"""URL vote scores vs comment toxicity (§4.3.2, Figure 5).

For every crawled URL, the net vote score (up minus down) is paired with
the mean and median SEVERE_TOXICITY of its comments.  The paper finds the
highest toxicity concentrated at net-zero URLs, decaying as |net| grows,
with negative-net URLs slightly more toxic than positive ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scoring import ScoreStore
from repro.store import CorpusStore, columns_of

__all__ = ["VoteToxicity", "analyze_votes"]


@dataclass
class VoteToxicity:
    """Figure 5's per-URL points plus bucketed aggregates."""

    net_scores: np.ndarray           # per URL
    mean_toxicity: np.ndarray        # per URL
    median_toxicity: np.ndarray      # per URL
    positive_urls: int = 0
    negative_urls: int = 0
    zero_urls: int = 0
    in_band_fraction: float = 0.0    # |net| < 10

    bucket_means: dict[int, float] = field(default_factory=dict)
    bucket_medians: dict[int, float] = field(default_factory=dict)

    def mean_at(self, net: int) -> float | None:
        return self.bucket_means.get(net)

    def aggregate_mean(self, nets: list[int]) -> float:
        values = [self.bucket_means[n] for n in nets if n in self.bucket_means]
        return float(np.mean(values)) if values else float("nan")


def analyze_votes(
    result: CorpusStore,
    store: ScoreStore | None = None,
    max_comments_per_url: int = 50,
) -> VoteToxicity:
    """Pair every URL's net vote score with its comment toxicity."""
    store = store or ScoreStore()
    nets, means, medians = _url_toxicity(
        columns_of(result), store, max_comments_per_url
    )
    return _bucketize(
        np.asarray(nets), np.asarray(means), np.asarray(medians)
    )


def _url_toxicity(
    view, store: ScoreStore, max_comments_per_url: int
) -> tuple[list[int], list[float], list[float]]:
    scores = view.attribute_scores(store, "SEVERE_TOXICITY")
    order, offsets = view.url_comment_order()
    urls = view.urls
    nets: list[int] = []
    means: list[float] = []
    medians: list[float] = []
    for url_ordinal, net in zip(urls.key.tolist(), urls.net.tolist()):
        start, end = offsets[url_ordinal], offsets[url_ordinal + 1]
        if start == end:
            continue
        rows = order[start:min(end, start + max_comments_per_url)]
        group = scores[rows]
        nets.append(net)
        means.append(float(group.mean()))
        medians.append(float(np.median(group)))
    return nets, means, medians


def _bucketize(
    nets_arr: np.ndarray, means_arr: np.ndarray, medians_arr: np.ndarray
) -> VoteToxicity:
    analysis = VoteToxicity(
        net_scores=nets_arr,
        mean_toxicity=means_arr,
        median_toxicity=medians_arr,
        positive_urls=int((nets_arr > 0).sum()),
        negative_urls=int((nets_arr < 0).sum()),
        zero_urls=int((nets_arr == 0).sum()),
        in_band_fraction=(
            float((np.abs(nets_arr) < 10).mean()) if nets_arr.size else 0.0
        ),
    )
    for net in np.unique(nets_arr):
        mask = nets_arr == net
        analysis.bucket_means[int(net)] = float(means_arr[mask].mean())
        analysis.bucket_medians[int(net)] = float(
            np.median(medians_arr[mask])
        )
    return analysis
