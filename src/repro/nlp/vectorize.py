"""Sparse-ish text vectorisation (counts and TF-IDF).

We avoid scikit-learn by design: the vectorisers here build a vocabulary
over tokenised documents and emit dense ``numpy`` matrices (adequate at the
corpus scales this reproduction runs at) with an optional feature cap by
document frequency.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.nlp.ngrams import extract_ngrams
from repro.nlp.stem import PorterStemmer
from repro.nlp.tokenize import tokenize

__all__ = ["CountVectorizer", "TfidfVectorizer", "default_analyzer"]


def default_analyzer(orders: tuple[int, ...] = (1, 2)) -> Callable[[str], list[str]]:
    """Analyzer matching the paper's SVM features.

    Cleans, tokenises, Porter-stems, and extracts word n-grams of the given
    orders (the paper uses 1- and 2-grams of cleaned, stemmed tokens).
    Each distinct token is stemmed once per analyzer.
    """
    stemmer = PorterStemmer()
    stem_of: dict[str, str] = {}

    def stem(token: str) -> str:
        stemmed = stem_of.get(token)
        if stemmed is None:
            stemmed = stem_of[token] = stemmer.stem(token)
        return stemmed

    def analyze(text: str) -> list[str]:
        return extract_ngrams([stem(tok) for tok in tokenize(text)], orders)

    return analyze


class CountVectorizer:
    """Bag-of-n-grams count vectoriser.

    Args:
        analyzer: text -> feature list function; defaults to the paper's
            stemmed 1+2-gram analyzer.
        max_features: keep only the most document-frequent features.
        min_df: drop features appearing in fewer than this many documents.
    """

    def __init__(
        self,
        analyzer: Callable[[str], list[str]] | None = None,
        max_features: int | None = None,
        min_df: int = 1,
    ):
        self._analyzer = analyzer or default_analyzer()
        self._max_features = max_features
        self._min_df = min_df
        self.vocabulary_: dict[str, int] = {}

    @property
    def is_fitted(self) -> bool:
        return bool(self.vocabulary_)

    def fit(self, documents: Sequence[str]) -> "CountVectorizer":
        """Learn the vocabulary from a document collection."""
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            doc_freq.update(set(self._analyzer(doc)))
        candidates = [
            (feature, df) for feature, df in doc_freq.items() if df >= self._min_df
        ]
        # Highest document frequency first; ties broken lexicographically for
        # determinism.
        candidates.sort(key=lambda item: (-item[1], item[0]))
        if self._max_features is not None:
            candidates = candidates[: self._max_features]
        # Sorted feature order keeps column indices stable across runs.
        features = sorted(feature for feature, _ in candidates)
        self.vocabulary_ = {feature: index for index, feature in enumerate(features)}
        return self

    def transform(self, documents: Sequence[str]) -> np.ndarray:
        """Vectorise documents against the learned vocabulary."""
        if not self.is_fitted:
            raise RuntimeError("vectorizer must be fitted before transform")
        matrix = np.zeros((len(documents), len(self.vocabulary_)), dtype=np.float64)
        for row, doc in enumerate(documents):
            for feature in self._analyzer(doc):
                col = self.vocabulary_.get(feature)
                if col is not None:
                    matrix[row, col] += 1.0
        return matrix

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray:
        return self.fit(documents).transform(documents)


class TfidfVectorizer(CountVectorizer):
    """TF-IDF vectoriser built on :class:`CountVectorizer`.

    Uses smoothed IDF (``log((1 + n) / (1 + df)) + 1``) and L2 row
    normalisation.
    """

    def __init__(
        self,
        analyzer: Callable[[str], list[str]] | None = None,
        max_features: int | None = None,
        min_df: int = 1,
    ):
        super().__init__(analyzer=analyzer, max_features=max_features, min_df=min_df)
        self.idf_: np.ndarray | None = None

    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        super().fit(documents)
        n_docs = len(documents)
        doc_freq = np.zeros(len(self.vocabulary_))
        for doc in documents:
            # Deduplication only: each distinct feature adds exactly 1.0
            # to its column, and float additions of 1.0 commute exactly.
            # repro: allow DET003 order-independent count increments
            for feature in set(self._analyzer(doc)):
                col = self.vocabulary_.get(feature)
                if col is not None:
                    doc_freq[col] += 1
        self.idf_ = np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0
        return self

    def transform(self, documents: Sequence[str]) -> np.ndarray:
        if self.idf_ is None:
            raise RuntimeError("vectorizer must be fitted before transform")
        counts = super().transform(documents)
        weighted = counts * self.idf_
        norms = np.linalg.norm(weighted, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return weighted / norms
