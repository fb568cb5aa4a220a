"""Feature extraction for the Perspective models, a chunk of texts at a time.

Tokenises each comment and measures the rate of each vocabulary class the
platform's text generator emits, plus surface features (caps ratio,
exclamation bursts, attack-phrase presence).  Lookup is by stemmed token
against stemmed vocabulary sets, mirroring the dictionary scorer.

A comment corpus draws on a small closed vocabulary, so a token is
classified once: :func:`extract_features_many` keeps a caller-owned
``token -> class mask`` table (offensive=1, obscene=2, rude=4, hate=8),
stems only the tokens the table has not seen, and returns the chunk's
features as numpy columns (:class:`FeatureBatch`).  The table stops
growing at :data:`TABLE_ENTRIES`; later new tokens are classified once
per chunk and not kept.  :func:`extract_features` is the one-row view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.nlp.dictionary import AMBIGUOUS_TERMS, SUBSTRING_TRAP_TERM
from repro.nlp.lexicons import (
    ATTACK_PHRASES,
    OBSCENE_VOCAB,
    OFFENSIVE_VOCAB,
    RUDE_VOCAB,
    hate_vocab,
)
from repro.nlp.stem import PorterStemmer
from repro.nlp.tokenize import caps_ratio, tokenize

__all__ = [
    "CommentFeatures",
    "FeatureBatch",
    "TABLE_ENTRIES",
    "extract_features",
    "extract_features_many",
]

_STEMMER = PorterStemmer()

#: Entries a token class table may hold (the bound of the models' text
#: cache, too).
TABLE_ENTRIES = 100_000

_BANG_RE = re.compile(r"!+")
_ATTACK_RE = re.compile("|".join(map(re.escape, ATTACK_PHRASES)))

# Row ``mask`` holds that mask's four class bits (offensive, obscene,
# rude, hate) as 0/1 columns.
_MASK_BITS = (np.arange(16)[:, None] >> np.arange(4)) & 1


@lru_cache(maxsize=1)
def _stemmed_sets() -> dict[str, frozenset[str]]:
    def stems(words) -> frozenset[str]:
        return frozenset(
            s for s in (_STEMMER.stem(w.lower()) for w in words) if len(s) >= 3
        )

    # Unlike the dictionary scorer, the Perspective models are
    # context-aware in the real world: everyday ambiguous words ("queen",
    # "pig") and substring traps do not trigger them, so they are dropped
    # from the hate set here.  This is what preserves the paper's
    # dictionary-vs-Perspective disagreement structure (§3.5.1).
    unambiguous_hate = [
        term for term in hate_vocab()
        if term not in AMBIGUOUS_TERMS and term != SUBSTRING_TRAP_TERM
    ]
    return {
        "offensive": stems(OFFENSIVE_VOCAB),
        "obscene": stems(OBSCENE_VOCAB),
        "rude": stems(RUDE_VOCAB),
        "hate": stems(unambiguous_hate),
    }


def _token_class_mask(token: str) -> int:
    """Bit ``i`` set iff the token is in the ``i``-th vocabulary class.

    A token is in a class when its stem or its surface form is in the
    class's stemmed set.
    """
    stemmed = _STEMMER.stem(token)
    mask = 0
    for bit, vocab in enumerate(_stemmed_sets().values()):
        if stemmed in vocab or token in vocab:
            mask |= 1 << bit
    return mask


@dataclass(frozen=True)
class CommentFeatures:
    """Lexical features of one comment."""

    n_tokens: int
    offensive_rate: float
    obscene_rate: float
    rude_rate: float
    hate_rate: float
    union_rate: float          # tokens matching ANY non-benign class
    caps: float
    has_attack_phrase: bool
    bang_run: int              # longest run of consecutive '!'


@dataclass(frozen=True)
class FeatureBatch:
    """:class:`CommentFeatures` of a chunk of texts, one array per field."""

    n_tokens: np.ndarray           # int64
    offensive_rate: np.ndarray     # float64
    obscene_rate: np.ndarray
    rude_rate: np.ndarray
    hate_rate: np.ndarray
    union_rate: np.ndarray
    caps: np.ndarray
    has_attack_phrase: np.ndarray  # bool
    bang_run: np.ndarray           # int64

    def row(self, i: int) -> CommentFeatures:
        """Text ``i``'s features as Python scalars."""
        return CommentFeatures(
            n_tokens=int(self.n_tokens[i]),
            offensive_rate=float(self.offensive_rate[i]),
            obscene_rate=float(self.obscene_rate[i]),
            rude_rate=float(self.rude_rate[i]),
            hate_rate=float(self.hate_rate[i]),
            union_rate=float(self.union_rate[i]),
            caps=float(self.caps[i]),
            has_attack_phrase=bool(self.has_attack_phrase[i]),
            bang_run=int(self.bang_run[i]),
        )


def _bang_run(text: str) -> int:
    """Length of the longest run of consecutive ``!``."""
    if "!" not in text:
        return 0
    return max(map(len, _BANG_RE.findall(text)))


def _mask_of(token: str, table: dict[str, int], overflow: dict[str, int]) -> int:
    """A token's class mask, classifying it on its first sighting.

    New tokens go into ``table`` until it holds :data:`TABLE_ENTRIES`;
    later ones into the caller's per-chunk ``overflow`` dict.
    """
    mask = table.get(token)
    if mask is None:
        mask = overflow.get(token)
    if mask is None:
        mask = _token_class_mask(token)
        if len(table) < TABLE_ENTRIES:
            table[token] = mask
        else:
            overflow[token] = mask
    return mask


def extract_features_many(texts: Sequence[str], table: dict[str, int]) -> FeatureBatch:
    """Compute the features of a chunk of texts as numpy columns.

    ``table`` is the caller's ``token -> class mask`` memo; it is read
    and filled (up to :data:`TABLE_ENTRIES` entries) but never changes a
    result, so rows do not depend on what else is in the chunk or what
    was scored before.
    """
    size = len(texts)
    lengths: list[int] = []
    masks: list[int] = []
    overflow: dict[str, int] = {}
    for text in texts:
        tokens = tokenize(text)
        found = list(map(table.get, tokens))
        if None in found:
            found = [
                _mask_of(token, table, overflow) if mask is None else mask
                for token, mask in zip(tokens, found)
            ]
        lengths.append(len(tokens))
        masks.extend(found)
    n = np.array(lengths, dtype=np.int64)
    owner = np.repeat(np.arange(size, dtype=np.int64), n)
    # Per-text histogram over the 16 masks, then per-class counts.
    codes = owner * 16 + np.array(masks, dtype=np.int64)
    per_mask = np.bincount(codes, minlength=16 * size).reshape(size, 16)
    counts = per_mask @ _MASK_BITS
    union = n - per_mask[:, 0]

    def rate(count: np.ndarray) -> np.ndarray:
        return np.divide(count, n, out=np.zeros(size), where=n > 0)

    return FeatureBatch(
        n_tokens=n,
        offensive_rate=rate(counts[:, 0]),
        obscene_rate=rate(counts[:, 1]),
        rude_rate=rate(counts[:, 2]),
        hate_rate=rate(counts[:, 3]),
        union_rate=rate(union),
        caps=np.fromiter(map(caps_ratio, texts), dtype=np.float64, count=size),
        has_attack_phrase=np.fromiter(
            (_ATTACK_RE.search(text.lower()) is not None for text in texts),
            dtype=bool,
            count=size,
        ),
        bang_run=np.fromiter(map(_bang_run, texts), dtype=np.int64, count=size),
    )


def extract_features(text: str) -> CommentFeatures:
    """Compute :class:`CommentFeatures` for a comment."""
    return extract_features_many([text], {}).row(0)
