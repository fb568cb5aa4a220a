"""Single-pass scoring layer: the :class:`ScoreStore`.

The paper scores each of its 1.68M comments with three classifiers
exactly once and reuses those scores across every §4 analysis.  The
``ScoreStore`` is that separation as a component: a memoising, batch-
oriented layer over the Perspective models (plus the dictionary and SVM
channels used by the A2 ablation) that guarantees each unique text is
scored at most once per process, no matter how many analyses ask for it.
The models keep no text memo of their own: this store is the only one.

Contracts:

* ``score(text)`` returns the *cached dict itself* — the same object on
  every call for the same text.  Callers must treat it as read-only.
* ``score_many(texts)`` dedupes the batch, scores only the texts the
  store has never seen, and returns results in input order.  The unseen
  texts go to the models as one batch, which featurizes and scores them
  as arrays (see :mod:`repro.perspective.models`); a text's scores do
  not depend on the batch it arrives in.
* ``counters`` exposes hit/miss/batch accounting so callers (and the
  integration tests) can assert the exactly-once property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.perspective.models import PerspectiveModels

__all__ = ["ScoreStore", "ScoreStoreCounters"]


@dataclass
class ScoreStoreCounters:
    """Hit/miss/batch accounting for every scoring channel."""

    hits: int = 0                 # Perspective lookups served from cache
    misses: int = 0               # Perspective texts actually scored
    batches: int = 0              # score_many() calls
    dictionary_hits: int = 0
    dictionary_misses: int = 0
    svm_hits: int = 0
    svm_misses: int = 0

    @property
    def unique_texts(self) -> int:
        """Distinct texts the Perspective channel has scored."""
        return self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "batches": self.batches,
            "dictionary_hits": self.dictionary_hits,
            "dictionary_misses": self.dictionary_misses,
            "svm_hits": self.svm_hits,
            "svm_misses": self.svm_misses,
        }


def _ordered_missing(texts: Sequence[str], cache: Mapping[str, object]) -> list[str]:
    """Unique texts absent from ``cache``, in first-seen order."""
    return [text for text in dict.fromkeys(texts) if text not in cache]


class ScoreStore:
    """Memoising, batch-oriented scoring layer for the measurement stack.

    Args:
        models: shared Perspective models (fresh ones when omitted).
        dictionary: hate dictionary for :meth:`dictionary_ratios`
            (built lazily when omitted).
    """

    def __init__(
        self,
        models: PerspectiveModels | None = None,
        dictionary: object | None = None,
    ):
        self._models = models or PerspectiveModels()
        self._dictionary = dictionary
        self._scores: dict[str, dict[str, float]] = {}
        self._dict_ratios: dict[str, float] = {}
        self._svm_scores: dict[str, float] = {}
        self._svm_ref: object | None = None
        self.counters = ScoreStoreCounters()

    @property
    def models(self) -> PerspectiveModels:
        return self._models

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, text: str) -> bool:
        return text in self._scores

    # ------------------------------------------------------------------
    # Perspective channel.
    # ------------------------------------------------------------------

    def score(self, text: str) -> dict[str, float]:
        """All-attribute scores for one text (the cached dict itself)."""
        cached = self._scores.get(text)
        if cached is not None:
            self.counters.hits += 1
            return cached
        self.counters.misses += 1
        scores = self._models.score(text)
        self._scores[text] = scores
        return scores

    def score_many(self, texts: Iterable[str]) -> list[dict[str, float]]:
        """Scores for a batch, in input order; each unique text scored once."""
        batch = list(texts)
        missing = _ordered_missing(batch, self._scores)
        self.counters.batches += 1
        self.counters.hits += len(batch) - len(missing)
        self.counters.misses += len(missing)
        if missing:
            computed = self._models.score_many(missing)
            for text, scores in zip(missing, computed):
                self._scores[text] = scores
        return [self._scores[text] for text in batch]

    def prime(self, texts: Iterable[str], chunk_size: int = 4096) -> int:
        """Warm the cache from a stream without materializing it.

        The streaming counterpart of :meth:`score_many` for the
        pipeline's scoring pass: texts are consumed lazily (e.g. the
        corpus store's ``texts()`` view chained with the baselines),
        deduplicated on the fly, and the not-yet-cached remainder is
        scored in bounded chunks, one batch call each.  Counter
        accounting is identical to one ``score_many`` call over the same
        stream: one batch, every duplicate or already-cached text a hit,
        every unique new text a miss — so the exactly-once assertions
        hold unchanged.

        Returns the number of texts consumed from the stream.
        """
        self.counters.batches += 1
        pending: list[str] = []
        pending_set: set[str] = set()
        total = 0

        def flush() -> None:
            if not pending:
                return
            self.counters.misses += len(pending)
            computed = self._models.score_many(pending)
            for text, scores in zip(pending, computed):
                self._scores[text] = scores
            pending.clear()
            pending_set.clear()

        for text in texts:
            total += 1
            if text in self._scores or text in pending_set:
                self.counters.hits += 1
                continue
            pending.append(text)
            pending_set.add(text)
            if len(pending) >= chunk_size:
                flush()
        flush()
        return total

    def value(self, text: str, attribute: str) -> float:
        """One attribute's score for one text."""
        return self.score(text)[attribute]

    def attribute_values(self, texts: Iterable[str], attribute: str) -> np.ndarray:
        """One attribute's scores over a batch, as a float array."""
        rows = self.score_many(texts)
        return np.asarray([row[attribute] for row in rows], dtype=float)

    # ------------------------------------------------------------------
    # Dictionary channel (A2 ablation).
    # ------------------------------------------------------------------

    def _ensure_dictionary(self):
        if self._dictionary is None:
            from repro.nlp.dictionary import HateDictionary

            self._dictionary = HateDictionary()
        return self._dictionary

    def dictionary_ratios(self, texts: Iterable[str]) -> np.ndarray:
        """Hate-dictionary hit ratios over a batch (cached per text)."""
        batch = list(texts)
        missing = _ordered_missing(batch, self._dict_ratios)
        self.counters.dictionary_hits += len(batch) - len(missing)
        self.counters.dictionary_misses += len(missing)
        if missing:
            ratios = self._ensure_dictionary().score_many(missing)
            for text, ratio in zip(missing, ratios):
                self._dict_ratios[text] = float(ratio)
        return np.asarray(
            [self._dict_ratios[text] for text in batch], dtype=float
        )

    # ------------------------------------------------------------------
    # SVM channel (A2 ablation).
    # ------------------------------------------------------------------

    def svm_not_neither(
        self, texts: Iterable[str], classifier: object
    ) -> np.ndarray:
        """``1 - P(neither)`` per text under a trained 3-class classifier.

        The cache is keyed to the classifier instance: scoring with a
        different trained classifier resets the channel.
        """
        if classifier is not self._svm_ref:
            self._svm_ref = classifier
            self._svm_scores = {}
        batch = list(texts)
        missing = _ordered_missing(batch, self._svm_scores)
        self.counters.svm_hits += len(batch) - len(missing)
        self.counters.svm_misses += len(missing)
        if missing:
            probs = classifier.predict_proba(missing)
            for text, prob in zip(missing, probs):
                self._svm_scores[text] = 1.0 - prob.neither
        return np.asarray(
            [self._svm_scores[text] for text in batch], dtype=float
        )
