"""Tests for the single-pass scoring layer (ScoreStore) and the staged
pipeline built around it."""

import numpy as np
import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.core.scoring import ScoreStore
from repro.nlp.dictionary import HateDictionary
from repro.perspective.models import ATTRIBUTES, score_comment
from repro.platform import WorldConfig

TEXTS = [
    "the article was interesting and important",
    "you pathetic disgusting morons are all trash",
    "worthless braindead garbage everywhere",
    "meet at the usual place",
    "I DEMAND ANSWERS RIGHT NOW!!!",
    "thanks for reading the article we hope it was interesting",
    "this piece is part of our continuing coverage of the issue",
    "the queen visited a pig farm today",
]


class _StubClassifier:
    """predict_proba stand-in for the SVM channel (counts invocations)."""

    class _Probs:
        def __init__(self, neither: float):
            self.neither = neither

    def __init__(self):
        self.calls = 0

    def predict_proba(self, texts):
        self.calls += 1
        return [self._Probs(1.0 / (1 + len(t))) for t in texts]


class TestScoreStoreCache:
    def test_same_text_returns_same_dict_object(self):
        store = ScoreStore()
        first = store.score(TEXTS[0])
        assert store.score(TEXTS[0]) is first
        assert store.score_many([TEXTS[0], TEXTS[1]])[0] is first

    def test_scores_match_pure_function(self):
        store = ScoreStore()
        for text in TEXTS:
            assert store.score(text) == score_comment(text)
        assert set(store.score(TEXTS[0])) == set(ATTRIBUTES)

    def test_hit_miss_counter_accuracy(self):
        store = ScoreStore()
        store.score_many([TEXTS[0], TEXTS[1], TEXTS[0]])
        assert store.counters.misses == 2
        assert store.counters.hits == 1
        assert store.counters.batches == 1
        store.score(TEXTS[0])
        store.score(TEXTS[2])
        assert store.counters.hits == 2
        assert store.counters.misses == 3
        assert store.counters.unique_texts == 3
        assert len(store) == 3
        assert TEXTS[2] in store and TEXTS[3] not in store

    def test_underlying_models_score_each_text_once(self):
        store = ScoreStore()
        store.score_many(TEXTS * 3)
        store.score_many(TEXTS)
        assert store.models.calls == len(TEXTS)

    def test_repeated_text_reaches_the_models_once(self):
        # The store is the only text memo: a text asked for again, one at
        # a time, in a batch or through prime, is not scored again.
        store = ScoreStore()
        first = store.score("same text")
        assert store.score("same text") is first
        store.score_many(["same text", "same text"])
        store.prime(["same text"] * 3)
        assert store.models.calls == 1

    def test_prime_scores_a_lone_surrogate(self):
        # json.loads turns a "\\ud800" escape into a lone surrogate; the
        # scoring pass must score such a text, not raise on encoding it,
        # and every other text keeps the scores it has without it.
        odd = ["bad \ud800 text", "\udfff", "mixed \ud83d\ude00 \udc00 end"]
        store = ScoreStore()
        assert store.prime(TEXTS + odd) == len(TEXTS) + len(odd)
        for text in odd:
            assert set(store.score(text)) == set(ATTRIBUTES)
            assert all(0.0 <= v <= 1.0 for v in store.score(text).values())
        clean = ScoreStore()
        clean.prime(TEXTS)
        for text in TEXTS:
            assert store.score(text) == clean.score(text) == score_comment(text)

    def test_value_and_attribute_values(self):
        store = ScoreStore()
        values = store.attribute_values(TEXTS, "SEVERE_TOXICITY")
        assert values.shape == (len(TEXTS),)
        assert values[1] == store.value(TEXTS[1], "SEVERE_TOXICITY")
        with pytest.raises(KeyError):
            store.attribute_values(TEXTS, "NO_SUCH_ATTRIBUTE")


class TestScoreStoreChannels:
    def test_dictionary_ratios_cached(self):
        store = ScoreStore()
        batch = [TEXTS[0], TEXTS[7], TEXTS[0]]
        ratios = store.dictionary_ratios(batch)
        expected = HateDictionary().score_many(batch)
        assert np.array_equal(ratios, expected)
        assert store.counters.dictionary_misses == 2
        assert store.counters.dictionary_hits == 1
        store.dictionary_ratios(batch)
        assert store.counters.dictionary_misses == 2
        assert store.counters.dictionary_hits == 4

    def test_svm_channel_cached_per_classifier(self):
        store = ScoreStore()
        clf = _StubClassifier()
        first = store.svm_not_neither(TEXTS, clf)
        again = store.svm_not_neither(TEXTS, clf)
        assert np.array_equal(first, again)
        assert clf.calls == 1   # second batch fully served from cache
        assert store.counters.svm_misses == len(TEXTS)
        assert store.counters.svm_hits == len(TEXTS)
        other = _StubClassifier()
        store.svm_not_neither(TEXTS, other)
        assert other.calls == 1   # new classifier, channel reset


@pytest.fixture(scope="module")
def staged_pipeline():
    """A tiny pipeline run stage by stage."""
    pipeline = ReproductionPipeline(WorldConfig(scale=0.001, seed=3))
    artifacts = pipeline.stage_crawl()
    pipeline.stage_score(artifacts)
    misses_after_score = pipeline.store.counters.misses
    report = pipeline.stage_analyze(artifacts)
    return pipeline, artifacts, report, misses_after_score


@pytest.fixture(scope="module")
def run_report():
    """The same world, one full run() on a fresh pipeline."""
    return ReproductionPipeline(WorldConfig(scale=0.001, seed=3)).run()


class TestSinglePassPipeline:
    def test_scoring_pass_scores_each_unique_text_exactly_once(
        self, staged_pipeline
    ):
        pipeline, artifacts, _report, misses_after_score = staged_pipeline
        unique = set(artifacts.corpus_texts())
        for texts in artifacts.baseline_texts.values():
            unique.update(texts)
        assert misses_after_score == len(unique)
        assert pipeline.models.calls == misses_after_score

    def test_analyses_only_read_from_the_store(self, staged_pipeline):
        pipeline, _artifacts, _report, misses_after_score = staged_pipeline
        # Every text any analysis needed was covered by the scoring pass.
        assert pipeline.store.counters.misses == misses_after_score
        assert pipeline.store.counters.hits > 0

    def test_parallel_run_reproduces_serial_figures(
        self, staged_pipeline, run_report
    ):
        # The staged run and a separate full run() score the same texts
        # in one pass each; every figure must come out identical.
        _pipeline, _artifacts, staged, _misses = staged_pipeline
        full = run_report
        for attribute, by_class in staged.shadow.scores.items():
            for cls, scores in by_class.items():
                assert np.array_equal(
                    scores, full.shadow.scores[attribute][cls]
                ), (attribute, cls)
        for attribute, by_dataset in staged.relative.scores.items():
            for name, scores in by_dataset.items():
                assert np.array_equal(
                    scores, full.relative.scores[attribute][name]
                ), (attribute, name)
        assert staged.votes.bucket_means == full.votes.bucket_means
        assert staged.votes.bucket_medians == full.votes.bucket_medians
        for category, scores in staged.bias.toxicity.items():
            assert np.array_equal(
                scores, full.bias.toxicity[category]
            ), category
        assert staged.hateful_core.size == full.hateful_core.size
        assert (
            staged.social.toxicity_by_in_degree
            == full.social.toxicity_by_in_degree
        )

    def test_run_records_stage_timings_and_counters(self, run_report):
        seconds = run_report.stage_seconds
        assert set(seconds) == {"crawl", "score", "analyze"}
        assert all(value >= 0 for value in seconds.values())
        counters = run_report.scoring_counters
        assert counters["misses"] > 0
        assert counters["batches"] >= 1
