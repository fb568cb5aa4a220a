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
per call and not kept.  :func:`extract_features` is the one-row view.

Every feature comes from one pass over the chunk's joined text
(:class:`~repro.nlp.tokenize.TextChunk`): one token pass, whose
:data:`~repro.nlp.tokenize.TOKEN_BREAK` tokens mark where each text's
tokens end, one ``find`` loop per attack phrase, and byte counts for the
caps ratio and the ``!`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
from repro.nlp.tokenize import TOKEN_BREAK, TextChunk, text_chunks

__all__ = [
    "CommentFeatures",
    "FeatureBatch",
    "TABLE_ENTRIES",
    "extract_features",
    "extract_features_many",
]

_STEMMER = PorterStemmer()

#: Entries a token class table may hold.
TABLE_ENTRIES = 100_000

_ATTACK_BYTES = tuple(phrase.encode("ascii") for phrase in ATTACK_PHRASES)
# The class mask a TOKEN_BREAK token reads as: column 16 of the per-text
# histogram, which is dropped.
_BREAK_MASK = 16

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


def _class_masks(
    tokens: list[str], table: dict[str, int], lookup: dict[str, int]
) -> np.ndarray:
    """Each token's class mask, classifying new tokens on first sighting.

    ``lookup`` is ``table`` plus :data:`TOKEN_BREAK` and the new tokens
    ``table`` had no room for.  New tokens go into ``table`` until it
    holds :data:`TABLE_ENTRIES`, and into ``lookup`` always.
    """
    try:
        return np.fromiter(
            map(lookup.__getitem__, tokens), dtype=np.int64, count=len(tokens)
        )
    except KeyError:
        pass
    for token in sorted(set(tokens).difference(lookup)):
        lookup[token] = mask = _token_class_mask(token)
        if len(table) < TABLE_ENTRIES:
            table[token] = mask
    return np.fromiter(
        map(lookup.__getitem__, tokens), dtype=np.int64, count=len(tokens)
    )


def _attack_flags(chunk: TextChunk) -> np.ndarray:
    """Whether each lower-cased text contains an attack phrase."""
    view = chunk.lowered
    positions = []
    for phrase in _ATTACK_BYTES:
        at = view.find(phrase)
        while at >= 0:
            positions.append(at)
            at = view.find(phrase, at + len(phrase))
    flags = np.zeros(len(chunk.texts), dtype=bool)
    flags[chunk.owners(view, np.array(positions, dtype=np.int64))] = True
    return flags


def _bang_runs(chunk: TextChunk) -> np.ndarray:
    """Per text, the length of the longest run of consecutive ``!``."""
    runs = np.zeros(len(chunk.texts), dtype=np.int64)
    if b"!" not in chunk.raw:
        return runs
    bang = np.frombuffer(chunk.raw, dtype=np.uint8) == ord("!")
    edges = np.flatnonzero(np.diff(bang, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    np.maximum.at(runs, chunk.owners(chunk.raw, starts), ends - starts)
    return runs


def _chunk_features(
    chunk: TextChunk, table: dict[str, int], lookup: dict[str, int]
) -> FeatureBatch:
    size = len(chunk.texts)
    masks = _class_masks(chunk.tokens(), table, lookup)
    # Text i's tokens follow i TOKEN_BREAKs; a histogram over 17 masks
    # per text, then per-class counts from the 16 real ones.
    owner = np.cumsum(masks == _BREAK_MASK)
    per_mask = np.bincount(owner * 17 + masks, minlength=17 * size)
    per_mask = per_mask.reshape(size, 17)[:, :16]
    n = per_mask.sum(axis=1)
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
        caps=chunk.caps_ratios(),
        has_attack_phrase=_attack_flags(chunk),
        bang_run=_bang_runs(chunk),
    )


def extract_features_many(texts: Sequence[str], table: dict[str, int]) -> FeatureBatch:
    """Compute the features of a chunk of texts as numpy columns.

    ``table`` is the caller's ``token -> class mask`` memo; it is read
    and filled (up to :data:`TABLE_ENTRIES` entries) but never changes a
    result, so rows do not depend on what else is in the chunk or what
    was scored before.
    """
    lookup = {**table, TOKEN_BREAK: _BREAK_MASK}
    batches = [
        _chunk_features(chunk, table, lookup) for chunk in text_chunks(texts)
    ]
    if len(batches) == 1:
        return batches[0]
    return FeatureBatch(*(
        np.concatenate([getattr(batch, field.name) for batch in batches])
        for field in fields(FeatureBatch)
    ))


def extract_features(text: str) -> CommentFeatures:
    """Compute :class:`CommentFeatures` for a comment."""
    return extract_features_many([text], {}).row(0)
