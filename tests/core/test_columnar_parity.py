"""The columnar §4 analyses against their dict-path oracle.

Every vectorized analysis must be *bit-identical* to the record-dict
implementation it replaced: same values, same dict insertion orders,
same float bits.  The oracles live in :mod:`tests.oracles.analyses` and
run over the same sealed store, reading its record dicts instead of its
column view.  The full-report comparison lives in
``tests/core/test_oracle_report.py``.
"""

import numpy as np
import pytest

from repro.core.bias import analyze_bias
from repro.core.macro import (
    _parse_iso,
    analyze_gab_growth,
    comment_concentration,
    user_table,
)
from repro.core.pipeline import ReproductionPipeline
from repro.core.relative import relative_toxicity
from repro.core.urls import analyze_urls
from repro.core.votes import analyze_votes
from repro.platform.config import WorldConfig
from repro.store import columns_of

from tests.oracles import analyses as oracles

CONFIG = dict(scale=0.0015, seed=11)


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """One spilled-store pipeline run, sealed and scored."""
    store_dir = tmp_path_factory.mktemp("colstore")
    pipeline = ReproductionPipeline(
        WorldConfig(**CONFIG), store_dir=str(store_dir), segment_records=128
    )
    artifacts = pipeline.stage_crawl()
    pipeline.stage_score(artifacts)
    corpus = artifacts.corpus
    assert columns_of(corpus) is not None
    return pipeline, artifacts, corpus


class TestAnalysisParity:
    def test_concentration(self, staged):
        _, _, corpus = staged
        columnar = comment_concentration(corpus)
        dicts = oracles.comment_concentration(corpus)
        assert np.array_equal(columnar.counts, dicts.counts)
        assert columnar.counts.dtype == dicts.counts.dtype
        assert columnar.gini_like_top_shares == dicts.gini_like_top_shares

    def test_user_table(self, staged):
        _, _, corpus = staged
        columnar = user_table(corpus)
        dicts = oracles.user_table(corpus)
        assert columnar.n_active == dicts.n_active
        # Same counts AND the same dict insertion order.
        assert list(columnar.flag_counts.items()) == list(
            dicts.flag_counts.items()
        )
        assert list(columnar.filter_counts.items()) == list(
            dicts.filter_counts.items()
        )

    def test_urls(self, staged):
        _, _, corpus = staged
        columnar = analyze_urls(corpus)
        dicts = oracles.analyze_urls(corpus)
        assert columnar.total_urls == dicts.total_urls
        assert list(columnar.tld_counts.items()) == list(
            dicts.tld_counts.items()
        )
        assert list(columnar.domain_counts.items()) == list(
            dicts.domain_counts.items()
        )
        assert list(columnar.scheme_counts.items()) == list(
            dicts.scheme_counts.items()
        )
        assert columnar.protocol_duplicates == dicts.protocol_duplicates
        assert (
            columnar.trailing_slash_duplicates
            == dicts.trailing_slash_duplicates
        )
        assert columnar.multi_param_urls == dicts.multi_param_urls
        assert columnar.top_volume_urls == dicts.top_volume_urls
        assert list(columnar.median_volume_by_domain.items()) == list(
            dicts.median_volume_by_domain.items()
        )

    def test_votes(self, staged):
        pipeline, _, corpus = staged
        columnar = analyze_votes(corpus, pipeline.store)
        dicts = oracles.analyze_votes(corpus, pipeline.store)
        assert np.array_equal(columnar.net_scores, dicts.net_scores)
        assert np.array_equal(columnar.mean_toxicity, dicts.mean_toxicity)
        assert np.array_equal(
            columnar.median_toxicity, dicts.median_toxicity
        )
        assert list(columnar.bucket_means.items()) == list(
            dicts.bucket_means.items()
        )
        assert list(columnar.bucket_medians.items()) == list(
            dicts.bucket_medians.items()
        )
        assert columnar.in_band_fraction == dicts.in_band_fraction

    def test_bias(self, staged):
        pipeline, _, corpus = staged
        columnar = analyze_bias(corpus, pipeline.store)
        dicts = oracles.analyze_bias(corpus, pipeline.store)
        assert list(columnar.comment_counts.items()) == list(
            dicts.comment_counts.items()
        )
        for bias in columnar.toxicity:
            assert np.array_equal(
                columnar.toxicity[bias], dicts.toxicity[bias]
            )
            assert np.array_equal(columnar.attack[bias], dicts.attack[bias])
        assert columnar.ks_toxicity == dicts.ks_toxicity
        assert columnar.ks_attack == dicts.ks_attack

    def test_relative(self, staged):
        pipeline, artifacts, corpus = staged
        columnar = relative_toxicity(
            corpus, artifacts.baseline_texts, pipeline.store
        )
        dicts = oracles.relative_toxicity(
            corpus, artifacts.baseline_texts, pipeline.store
        )
        for attribute, by_dataset in columnar.scores.items():
            assert list(by_dataset) == list(dicts.scores[attribute])
            for dataset, values in by_dataset.items():
                assert np.array_equal(
                    values, dicts.scores[attribute][dataset]
                )

    def test_growth_vectorized_matches_scalar_parse(self, staged):
        pipeline, artifacts, _ = staged
        accounts = artifacts.gab_enumeration.accounts
        series = analyze_gab_growth(accounts)
        times = np.asarray([_parse_iso(a.created_at_iso) for a in accounts])
        ids = np.asarray([a.gab_id for a in accounts])
        order = np.argsort(times)
        assert np.array_equal(series.created_at, times[order])
        assert np.array_equal(series.gab_ids, ids[order])
        frontier = np.concatenate([[0], np.maximum.accumulate(ids[order])[:-1]])
        assert series.anomalous_count == int(
            (ids[order] < frontier * 0.5).sum()
        )

