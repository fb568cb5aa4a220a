"""Hate-term dictionary scoring.

Section 3.5.1 of the paper scores comments against the modified Hatebase
dictionary (1,027 terms) used by prior Gab/4chan studies: tokenise, stem,
and take the ratio of dictionary hits to total tokens.

The real Hatebase dictionary is licensed and consists largely of slurs, so
this reproduction ships a **synthetic** stand-in with the same statistical
structure: 1,027 deterministic pseudo-terms, a handful of deliberately
ambiguous everyday words (the paper calls out "queen" and "pig"), and a
"substring trap" term whose four leading characters appear inside an
innocuous country name — mirroring the paper's "Pakistan contains 'paki'"
false-positive discussion.  The scoring code path is identical to the
paper's; only the vocabulary is synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from repro.nlp.stem import PorterStemmer
from repro.nlp.tokenize import tokenize

__all__ = [
    "AMBIGUOUS_TERMS",
    "HATEBASE_SIZE",
    "HateDictionary",
    "build_synthetic_hatebase",
    "hate_vocab",
]

HATEBASE_SIZE = 1027
"""Term count of the modified Hatebase dictionary the paper uses."""

# Everyday words that also appear in the real dictionary and cause false
# positives (§3.5.1 names "queen" and "pig" explicitly).
AMBIGUOUS_TERMS: tuple[str, ...] = (
    "queen",
    "pig",
    "skank",
    "rat",
    "snake",
    "trash",
    "vermin",
    "parasite",
    "cockroach",
    "animal",
    "ape",
    "monkey",
)

# The substring-trap analogue: "zekist" is a dictionary term whose stem is a
# prefix of the innocuous token "zekistan" (a fictional country), mirroring
# the paper's Pakistan/"paki" example when substring matching is (wrongly)
# enabled.
SUBSTRING_TRAP_TERM = "zekist"
SUBSTRING_TRAP_INNOCUOUS = "zekistan"

# Generated pseudo-words must never collide with real common English words
# (onset+nucleus+coda can produce e.g. "not" or "but", which would turn
# stopwords into dictionary hits corpus-wide).
_ENGLISH_BLOCKLIST = frozenset(
    """
    not but bat bit sat set sit sun son man men net new now out top ten
    tin tan ton nut gut got get bet best hat hit hot hut jet job jam
    kid kit man map mat mad nod pat pet pit pot put rat rod rot run
    sad sap sod tab tap tip wet win wit zap fan far fat fit fun gap gas
    bad bag ban bed bid big bin bog box bud bug bun bus dig dim dip dog
    dot dug fin fig fog fox gum gun ham has had hen hid him hip his hop
    lab lad lag lap led leg let lid lip lit log lot low mob mop mud mug
    nap nip pad pan pen pig pin pop pub rag ram ran rap red rib rid rim
    rip rob rub rug sag sin sip six ski sky slat snap spit spot stab
    stop swim trap trim trip twin vet was web wig yes zip
    """.split()
)

_ONSETS = (
    "b", "bl", "br", "d", "dr", "f", "fl", "g", "gl", "gr", "h", "j", "k",
    "kl", "kr", "m", "n", "p", "pl", "pr", "r", "s", "sk", "sl", "sm", "sn",
    "sp", "st", "t", "tr", "v", "w", "z",
)
_NUCLEI = ("a", "e", "i", "o", "u", "aa", "ee", "oo", "ai", "ou")
_CODAS = ("b", "ck", "d", "f", "g", "k", "l", "m", "n", "p", "r", "rg",
          "rk", "s", "sh", "t", "x", "zz")


def _pseudo_word(rng: np.random.Generator, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(str(rng.choice(_ONSETS)))
        parts.append(str(rng.choice(_NUCLEI)))
    parts.append(str(rng.choice(_CODAS)))
    return "".join(parts)


def build_synthetic_hatebase(seed: int = 1027) -> list[str]:
    """Build the deterministic synthetic hate lexicon.

    Returns exactly :data:`HATEBASE_SIZE` unique terms: generated
    pseudo-words (some with a trailing-"z" slang variant, mirroring the
    paper's stemming/fuzzy-matching discussion), the ambiguous everyday
    terms, and the substring-trap term.
    """
    rng = np.random.default_rng(seed)
    terms: list[str] = list(AMBIGUOUS_TERMS)
    terms.append(SUBSTRING_TRAP_TERM)
    seen = set(terms)
    seen.add(SUBSTRING_TRAP_INNOCUOUS)  # never generate the innocuous word
    while len(terms) < HATEBASE_SIZE:
        word = _pseudo_word(rng, syllables=int(rng.integers(1, 3)))
        if len(word) < 3 or word in seen or word in _ENGLISH_BLOCKLIST:
            continue
        seen.add(word)
        terms.append(word)
        # ~10% of terms get a trailing-z slang variant, as real hate slang
        # often does ("...can yield false negatives, for instance if the
        # hate word is succeeded with a 'z'").
        if rng.random() < 0.10 and len(terms) < HATEBASE_SIZE:
            variant = word + "z"
            if variant not in seen:
                seen.add(variant)
                terms.append(variant)
    return terms


@cache
def _default_hatebase() -> tuple[str, ...]:
    return tuple(build_synthetic_hatebase())


def hate_vocab() -> list[str]:
    """The synthetic hate lexicon (cached; deterministic)."""
    return list(_default_hatebase())


@dataclass(frozen=True)
class DictionaryScore:
    """Per-comment dictionary scoring result."""

    hate_tokens: int
    total_tokens: int
    matches: tuple[str, ...]

    @property
    def ratio(self) -> float:
        """Hate-token ratio; 0.0 for empty comments."""
        if self.total_tokens == 0:
            return 0.0
        return self.hate_tokens / self.total_tokens


class HateDictionary:
    """Tokenise-stem-match dictionary scorer (paper §3.5.1).

    Args:
        terms: the dictionary vocabulary; defaults to the synthetic
            Hatebase stand-in.
        substring_matching: when True, also count tokens that merely
            *contain* a dictionary term — deliberately reproducing the
            false-positive failure mode the paper warns about.  Off by
            default.
    """

    def __init__(
        self,
        terms: Iterable[str] | None = None,
        substring_matching: bool = False,
    ):
        self._stemmer = PorterStemmer()
        raw_terms = list(terms) if terms is not None else _default_hatebase()
        self._raw_terms = frozenset(t.lower() for t in raw_terms)
        # Stems shorter than 3 characters would turn stopwords like "to"
        # into dictionary hits (e.g. the stem of a term ending in "s"), so
        # they are matched on the raw form only.
        self._stemmed_terms = frozenset(
            s for s in (self._stemmer.stem(t) for t in self._raw_terms) if len(s) >= 3
        )
        self._substring = substring_matching

    @property
    def size(self) -> int:
        """Number of raw dictionary terms."""
        return len(self._raw_terms)

    def _matches(self, token: str, stemmed: str) -> bool:
        if token in self._raw_terms or stemmed in self._stemmed_terms:
            return True
        if self._substring:
            return any(term in token for term in self._raw_terms if len(term) >= 4)
        return False

    def _score(self, text: str, stems: dict[str, str]) -> DictionaryScore:
        """Score one comment, stemming through the ``token -> stem`` memo."""
        tokens = tokenize(text)  # already lowercase
        matches = []
        for token in tokens:
            stemmed = stems.get(token)
            if stemmed is None:
                stemmed = stems[token] = self._stemmer.stem(token)
            if self._matches(token, stemmed):
                matches.append(token)
        return DictionaryScore(
            hate_tokens=len(matches),
            total_tokens=len(tokens),
            matches=tuple(matches),
        )

    def score(self, text: str) -> DictionaryScore:
        """Score a comment: ratio of dictionary hits over total tokens."""
        return self._score(text, {})

    def score_many(self, texts: Sequence[str]) -> np.ndarray:
        """Vector of hate ratios for a batch of comments.

        Each distinct token is stemmed once per call.
        """
        stems: dict[str, str] = {}
        return np.asarray([self._score(text, stems).ratio for text in texts])
