"""Record-dict reference implementations of the columnar §4 analyses.

Each function walks the corpus's record dicts and secondary indexes —
the path the vectorized analyses in :mod:`repro.core` replaced — and
returns the same result type.  They work on any :class:`CorpusStore`,
sealed or not, because they never touch the column view.
"""

from __future__ import annotations

from typing import Mapping, Sequence
from urllib.parse import urlsplit

import numpy as np

from repro.core.bias import BIAS_CATEGORIES, BiasAnalysis, bias_of_url
from repro.core.macro import CommentConcentration, UserTableStats
from repro.core.relative import FIG7_ATTRIBUTES, RelativeToxicity
from repro.core.scoring import ScoreStore
from repro.core.urls import UrlTableStats, second_level_domain, tld_of
from repro.core.votes import VoteToxicity, _bucketize
from repro.stats.distributions import top_share
from repro.stats.hypothesis_tests import pairwise_ks
from repro.store import CorpusStore

__all__ = [
    "PIPELINE_ORACLES",
    "analyze_bias",
    "analyze_urls",
    "analyze_votes",
    "comment_concentration",
    "relative_toxicity",
    "user_table",
]


def comment_concentration(result: CorpusStore) -> CommentConcentration:
    """Fig. 3 from per-author comment lists."""
    by_author = result.comments_by_author()
    counts = np.asarray(
        sorted((len(v) for v in by_author.values()), reverse=True),
        dtype=float,
    )
    if counts.size == 0:
        raise ValueError("corpus has no comments")
    shares = {
        fraction: top_share(counts, fraction)
        for fraction in (0.01, 0.05, 0.10, 0.14, 0.25, 0.50)
    }
    return CommentConcentration(
        counts=counts,
        top_14pct_share=shares[0.14],
        gini_like_top_shares=shares,
    )


def user_table(result: CorpusStore) -> UserTableStats:
    """Table 1 from the active users' permission and filter dicts."""
    active = [u for u in result.active_users() if u.permissions]
    stats = UserTableStats(n_active=len(active))
    for user in active:
        for name, value in user.permissions.items():
            if value:
                stats.flag_counts[name] = stats.flag_counts.get(name, 0) + 1
        for name, value in user.view_filters.items():
            if value:
                stats.filter_counts[name] = stats.filter_counts.get(name, 0) + 1
    return stats


def analyze_urls(result: CorpusStore) -> UrlTableStats:
    """The §4.2.1 census, one URL record at a time."""
    urls = [u.url for u in result.urls.values()]
    stats = UrlTableStats(total_urls=len(urls))

    https_set: set[str] = set()
    for url in urls:
        scheme = url.split(":", 1)[0].lower() if ":" in url else "unknown"
        stats.scheme_counts[scheme] = stats.scheme_counts.get(scheme, 0) + 1
        if scheme == "https":
            https_set.add(url[len("https://"):])
        tld = tld_of(url)
        if tld is not None:
            stats.tld_counts[tld] = stats.tld_counts.get(tld, 0) + 1
        domain = second_level_domain(url)
        if domain is not None:
            stats.domain_counts[domain] = stats.domain_counts.get(domain, 0) + 1
        query = urlsplit(url).query if "://" in url else ""
        if query.count("&") >= 1:
            stats.multi_param_urls += 1

    # Protocol-only duplicates: http:// URL whose https:// twin exists.
    all_urls = set(urls)
    for url in urls:
        if url.startswith("http://") and url[len("http://"):] in https_set:
            stats.protocol_duplicates += 1
        if url.endswith("/") and url[:-1] in all_urls:
            stats.trailing_slash_duplicates += 1

    # Per-URL comment volume, by domain.
    volumes: dict[str, list[int]] = {}
    by_url = result.comments_by_url()
    top: list[tuple[int, str]] = []
    for record in result.urls.values():
        count = len(by_url.get(record.commenturl_id, []))
        top.append((count, record.url))
        domain = second_level_domain(record.url)
        if domain is not None:
            volumes.setdefault(domain, []).append(count)
    top.sort(reverse=True)
    stats.top_volume_urls = top[:20]
    stats.median_volume_by_domain = {
        domain: float(np.median(counts))
        for domain, counts in volumes.items()
        if counts
    }
    return stats


def analyze_votes(
    result: CorpusStore,
    store: ScoreStore | None = None,
    max_comments_per_url: int = 50,
) -> VoteToxicity:
    """Fig. 5, scoring each URL's comment texts through the store."""
    store = store or ScoreStore()
    by_url = result.comments_by_url()
    nets: list[int] = []
    means: list[float] = []
    medians: list[float] = []
    for record in result.urls.values():
        comments = by_url.get(record.commenturl_id, [])
        if not comments:
            continue
        scores = store.attribute_values(
            [c.text for c in comments[:max_comments_per_url]],
            "SEVERE_TOXICITY",
        )
        nets.append(record.net_votes)
        means.append(float(scores.mean()))
        medians.append(float(np.median(scores)))
    return _bucketize(
        np.asarray(nets), np.asarray(means), np.asarray(medians)
    )


def relative_toxicity(
    corpus: CorpusStore,
    baseline_texts: Mapping[str, Sequence[str]],
    store: ScoreStore | None = None,
    max_sample: int = 20_000,
) -> RelativeToxicity:
    """Fig. 7, scoring the corpus's texts instead of its score rows."""
    store = store or ScoreStore()
    rows_by_corpus: dict[str, list] = {
        "dissenter": store.score_many(list(corpus.texts())[:max_sample])
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


def analyze_bias(
    result: CorpusStore,
    store: ScoreStore | None = None,
    bias_table: Mapping[str, str] | None = None,
    max_per_bias: int = 10_000,
) -> BiasAnalysis:
    """Fig. 8, classifying each comment's URL one record at a time."""
    store = store or ScoreStore()
    url_bias = {
        record.commenturl_id: bias_of_url(record.url, bias_table)
        for record in result.urls.values()
    }

    tox: dict[str, list[float]] = {b: [] for b in BIAS_CATEGORIES}
    atk: dict[str, list[float]] = {b: [] for b in BIAS_CATEGORIES}
    counts: dict[str, int] = {b: 0 for b in BIAS_CATEGORIES}
    for comment in result.comments.values():
        bias = url_bias.get(comment.commenturl_id, "not-ranked")
        counts[bias] += 1
        if len(tox[bias]) >= max_per_bias:
            continue
        scores = store.score(comment.text)
        tox[bias].append(scores["SEVERE_TOXICITY"])
        atk[bias].append(scores["ATTACK_ON_AUTHOR"])

    analysis = BiasAnalysis(
        toxicity={b: np.asarray(v) for b, v in tox.items()},
        attack={b: np.asarray(v) for b, v in atk.items()},
        comment_counts=counts,
    )
    analysis.ks_toxicity = pairwise_ks(
        {b: v for b, v in analysis.toxicity.items() if v.size >= 5}
    )
    analysis.ks_attack = pairwise_ks(
        {b: v for b, v in analysis.attack.items() if v.size >= 5}
    )
    return analysis


#: Name ``stage_analyze`` looks up in :mod:`repro.core.pipeline` -> the
#: reference implementation a parity run patches over it.
PIPELINE_ORACLES = {
    "comment_concentration": comment_concentration,
    "user_table": user_table,
    "analyze_urls": analyze_urls,
    "analyze_votes": analyze_votes,
    "relative_toxicity": relative_toxicity,
    "analyze_bias": analyze_bias,
}
