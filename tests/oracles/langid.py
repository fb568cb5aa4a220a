"""Dict-per-language language identification: the reference for langid.

The naive-Bayes identifier before its log-probabilities became one
matrix: one ``gram -> log-prob`` dict per language, a per-language
default for unseen grams, and a log-likelihood summed one gram at a time
from left to right.  The sum is an explicit loop rather than ``sum()``,
which compensates for rounding on Python 3.12+.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping

from repro.nlp.ngrams import char_ngrams

__all__ = ["DictLanguageIdentifier"]


class DictLanguageIdentifier:
    """Same training and scoring rules as ``LanguageIdentifier``."""

    def __init__(self, order: int = 3, smoothing: float = 0.05):
        self._order = order
        self._smoothing = smoothing
        self._log_probs: dict[str, dict[str, float]] = {}
        self._default_log_prob: dict[str, float] = {}
        self._languages: list[str] = []

    def fit(self, corpora: Mapping[str, str]) -> "DictLanguageIdentifier":
        self._languages = sorted(corpora)
        vocab: set[str] = set()
        counts_per_lang: dict[str, Counter[str]] = {}
        for lang, text in corpora.items():
            counts = Counter(char_ngrams(text.lower(), self._order))
            counts_per_lang[lang] = counts
            vocab.update(counts)
        vocab_size = max(1, len(vocab))
        for lang in self._languages:
            counts = counts_per_lang[lang]
            total = sum(counts.values()) + self._smoothing * vocab_size
            self._log_probs[lang] = {
                gram: math.log((count + self._smoothing) / total)
                for gram, count in counts.items()
            }
            self._default_log_prob[lang] = math.log(self._smoothing / total)
        return self

    def scores(self, text: str) -> dict[str, float]:
        grams = char_ngrams(text.lower(), self._order)
        result: dict[str, float] = {}
        for lang in self._languages:
            table = self._log_probs[lang]
            default = self._default_log_prob[lang]
            total = 0.0
            for gram in grams:
                total += table.get(gram, default)
            result[lang] = total
        return result
