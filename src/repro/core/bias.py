"""Toxicity conditioned on media bias (§4.4.4, Figure 8).

URLs are classified with an Allsides-style bias table (news outlets only;
YouTube, social media and unknown domains are "not-ranked").  Per-bias
SEVERE_TOXICITY and ATTACK_ON_AUTHOR score distributions are compared
with pairwise two-sample KS tests — the paper confirms all pairs differ
at p < 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.scoring import ScoreStore
from repro.core.urls import second_level_domain
from repro.platform.urlgen import ALLSIDES_BIAS
from repro.stats.hypothesis_tests import KSResult, pairwise_ks
from repro.store import CorpusStore, columns_of

__all__ = ["BIAS_CATEGORIES", "BiasAnalysis", "analyze_bias", "bias_of_url"]

BIAS_CATEGORIES = (
    "left", "left-center", "center", "right-center", "right", "not-ranked"
)


def bias_of_url(url: str, table: Mapping[str, str] | None = None) -> str:
    """Allsides bias of a URL's domain ("not-ranked" when absent)."""
    table = table if table is not None else ALLSIDES_BIAS
    domain = second_level_domain(url)
    if domain is None:
        return "not-ranked"
    return table.get(domain, "not-ranked")


@dataclass
class BiasAnalysis:
    """Figure 8's samples and significance tests."""

    toxicity: dict[str, np.ndarray] = field(default_factory=dict)
    attack: dict[str, np.ndarray] = field(default_factory=dict)
    comment_counts: dict[str, int] = field(default_factory=dict)
    ks_toxicity: dict[tuple[str, str], KSResult] = field(default_factory=dict)
    ks_attack: dict[tuple[str, str], KSResult] = field(default_factory=dict)

    def median_toxicity(self, bias: str) -> float:
        values = self.toxicity.get(bias)
        if values is None or values.size == 0:
            return float("nan")
        return float(np.median(values))

    def mean_attack(self, bias: str) -> float:
        values = self.attack.get(bias)
        if values is None or values.size == 0:
            return float("nan")
        return float(values.mean())

    def ranked_comment_counts(self) -> list[tuple[str, int]]:
        return sorted(self.comment_counts.items(), key=lambda x: -x[1])


def analyze_bias(
    result: CorpusStore,
    store: ScoreStore | None = None,
    bias_table: Mapping[str, str] | None = None,
    max_per_bias: int = 10_000,
) -> BiasAnalysis:
    """Group comment scores by the bias of the commented URL."""
    store = store or ScoreStore()
    analysis = _bias_samples(columns_of(result), store, bias_table, max_per_bias)
    analysis.ks_toxicity = pairwise_ks(
        {b: v for b, v in analysis.toxicity.items() if v.size >= 5}
    )
    analysis.ks_attack = pairwise_ks(
        {b: v for b, v in analysis.attack.items() if v.size >= 5}
    )
    return analysis


def _bias_samples(
    view,
    store: ScoreStore,
    bias_table: Mapping[str, str] | None,
    max_per_bias: int,
) -> BiasAnalysis:
    table = bias_table if bias_table is not None else ALLSIDES_BIAS
    category_index = {name: k for k, name in enumerate(BIAS_CATEGORIES)}
    not_ranked = category_index["not-ranked"]

    # Bias category code per domain ordinal, scattered onto url ids,
    # then gathered per comment; unknown url ids stay "not-ranked".
    domain_code = np.asarray(
        [
            category_index[table.get(domain, "not-ranked")]
            for domain in view.tables.domains.values
        ],
        dtype=np.int64,
    )
    urls = view.urls
    if domain_code.size:
        url_code = np.where(
            urls.domain >= 0, domain_code[np.maximum(urls.domain, 0)], not_ranked
        )
    else:
        url_code = np.full(urls.n, not_ranked, dtype=np.int64)
    code_by_url_id = np.full(
        len(view.tables.url_ids), not_ranked, dtype=np.int64
    )
    code_by_url_id[urls.key] = url_code
    codes = code_by_url_id[view.comments.url]

    severe = view.attribute_scores(store, "SEVERE_TOXICITY")
    attack = view.attribute_scores(store, "ATTACK_ON_AUTHOR")
    total_counts = np.bincount(codes, minlength=len(BIAS_CATEGORIES))
    tox: dict[str, np.ndarray] = {}
    atk: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for name, code in category_index.items():
        rows = np.nonzero(codes == code)[0][:max_per_bias]
        tox[name] = severe[rows]
        atk[name] = attack[rows]
        counts[name] = int(total_counts[code])

    return BiasAnalysis(toxicity=tox, attack=atk, comment_counts=counts)
