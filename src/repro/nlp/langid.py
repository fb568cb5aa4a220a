"""Character n-gram language identification.

The paper classifies all 1.68M comments with ``langid.py`` (§4.2.3), finding
94% English and 2% German.  This module implements the same role from
scratch: a multinomial naive-Bayes classifier over character n-grams,
trained on bundled seed corpora for the languages that matter in the
Dissenter corpus (English, German, French, Spanish, Italian).

The seed corpora are short passages of everyday text; character-trigram
statistics of function words dominate, which is exactly why this family of
classifiers works well on short comments.

A trained identifier holds one float64 matrix with a row of per-language
log-probabilities for each training n-gram, plus a last row of the
per-language defaults for unseen n-grams.  Scoring a text is one dict
lookup per n-gram, a row gather, and a running sum taken strictly in
n-gram order (``np.add.accumulate``), so each log-likelihood is the same
left-to-right sum on every Python version.  ``np.sum`` (pairwise along a
contiguous axis), ``math.fsum`` and Python 3.12's ``sum`` can each round
differently.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from repro.nlp.ngrams import char_ngrams

__all__ = ["LanguageIdentifier", "default_language_identifier", "SEED_CORPORA"]

#: Log-prob rows :meth:`LanguageIdentifier.scores` gathers at a time.
_GATHER_ROWS = 4096

SEED_CORPORA: dict[str, str] = {
    "en": (
        "the quick brown fox jumps over the lazy dog and this is the way "
        "that we have always spoken about the things which are important "
        "to the people of this country because they should not have been "
        "there when it happened and nobody would tell them what they were "
        "going to do with all of the money that was found in the house "
        "you know that I think this is not right and we will never agree "
        "with what the government said about the news this week because "
        "it was wrong and everyone could see that they were lying to us "
        "free speech is the right of every person and the comments on the "
        "internet should not be removed by anyone who disagrees with them"
    ),
    "de": (
        "der schnelle braune fuchs springt über den faulen hund und das "
        "ist die art wie wir immer über die dinge gesprochen haben die "
        "für die menschen dieses landes wichtig sind weil sie nicht dort "
        "hätten sein sollen als es geschah und niemand würde ihnen sagen "
        "was sie mit dem ganzen geld machen wollten das im haus gefunden "
        "wurde ich denke das ist nicht richtig und wir werden niemals "
        "zustimmen was die regierung diese woche über die nachrichten "
        "gesagt hat weil es falsch war und jeder sehen konnte dass sie "
        "uns angelogen haben die meinungsfreiheit ist das recht jedes "
        "menschen und die kommentare im internet sollten nicht entfernt "
        "werden von irgendjemandem der mit ihnen nicht einverstanden ist"
    ),
    "fr": (
        "le renard brun rapide saute par dessus le chien paresseux et "
        "c'est ainsi que nous avons toujours parlé des choses qui sont "
        "importantes pour les gens de ce pays parce qu'ils n'auraient pas "
        "dû être là quand cela s'est produit et personne ne leur dirait "
        "ce qu'ils allaient faire avec tout l'argent trouvé dans la "
        "maison je pense que ce n'est pas juste et nous ne serons jamais "
        "d'accord avec ce que le gouvernement a dit cette semaine parce "
        "que c'était faux et tout le monde pouvait voir qu'ils nous "
        "mentaient la liberté d'expression est le droit de chaque "
        "personne et les commentaires sur internet ne devraient pas être "
        "supprimés par quiconque n'est pas d'accord avec eux"
    ),
    "es": (
        "el rápido zorro marrón salta sobre el perro perezoso y esta es "
        "la manera en que siempre hemos hablado de las cosas que son "
        "importantes para la gente de este país porque no deberían haber "
        "estado allí cuando sucedió y nadie les diría lo que iban a hacer "
        "con todo el dinero que se encontró en la casa creo que esto no "
        "es correcto y nunca estaremos de acuerdo con lo que el gobierno "
        "dijo sobre las noticias esta semana porque estaba mal y todos "
        "podían ver que nos estaban mintiendo la libertad de expresión es "
        "el derecho de cada persona y los comentarios en internet no "
        "deberían ser eliminados por nadie que no esté de acuerdo"
    ),
    "it": (
        "la veloce volpe marrone salta sopra il cane pigro e questo è il "
        "modo in cui abbiamo sempre parlato delle cose che sono "
        "importanti per la gente di questo paese perché non avrebbero "
        "dovuto essere lì quando è successo e nessuno avrebbe detto loro "
        "cosa avrebbero fatto con tutti i soldi trovati nella casa penso "
        "che questo non sia giusto e non saremo mai d'accordo con quello "
        "che il governo ha detto sulle notizie questa settimana perché "
        "era sbagliato e tutti potevano vedere che ci stavano mentendo la "
        "libertà di parola è il diritto di ogni persona e i commenti su "
        "internet non dovrebbero essere rimossi da nessuno"
    ),
}


class LanguageIdentifier:
    """Multinomial naive-Bayes classifier over character n-grams.

    Args:
        order: character n-gram length (3 is the classic choice).
        smoothing: Laplace smoothing constant.
    """

    def __init__(self, order: int = 3, smoothing: float = 0.05):
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self._order = order
        self._smoothing = smoothing
        self._languages: list[str] = []
        self._gram_rows: dict[str, int] = {}
        self._log_probs = np.zeros((1, 0))

    @property
    def languages(self) -> list[str]:
        """Languages the identifier was trained on."""
        return list(self._languages)

    def fit(self, corpora: Mapping[str, str]) -> "LanguageIdentifier":
        """Train from a {language: text} mapping."""
        if not corpora:
            raise ValueError("at least one training corpus is required")
        self._languages = sorted(corpora)
        vocab: set[str] = set()
        counts_per_lang: dict[str, Counter[str]] = {}
        for lang, text in corpora.items():
            counts = Counter(char_ngrams(text.lower(), self._order))
            counts_per_lang[lang] = counts
            vocab.update(counts)
        vocab_size = max(1, len(vocab))
        grams = sorted(vocab)
        self._gram_rows = {gram: row for row, gram in enumerate(grams)}
        self._log_probs = np.empty((len(grams) + 1, len(self._languages)))
        for column, lang in enumerate(self._languages):
            counts = counts_per_lang[lang]
            total = sum(counts.values()) + self._smoothing * vocab_size
            self._log_probs[:, column] = math.log(self._smoothing / total)
            for gram, count in counts.items():
                self._log_probs[self._gram_rows[gram], column] = math.log(
                    (count + self._smoothing) / total
                )
        return self

    def scores(self, text: str) -> dict[str, float]:
        """Log-likelihood of the text under each language model."""
        if not self._languages:
            raise RuntimeError("identifier must be trained before use")
        grams = char_ngrams(text.lower(), self._order)
        if not grams:
            return dict.fromkeys(self._languages, 0.0)
        rows = np.fromiter(
            map(self._gram_rows.get, grams, repeat(len(self._gram_rows))),
            dtype=np.intp,
            count=len(grams),
        )
        # Gather a bounded block of rows at a time: a long comment would
        # otherwise copy its whole (grams x languages) slice at once.
        totals = None
        for start in range(0, len(rows), _GATHER_ROWS):
            block = self._log_probs[rows[start : start + _GATHER_ROWS]]
            if totals is not None:
                block[0] += totals
            totals = np.add.accumulate(block, axis=0, out=block)[-1]
        return dict(zip(self._languages, totals.tolist()))

    def classify(self, text: str) -> str:
        """Most likely language; ties broken alphabetically.

        Empty/whitespace-only text defaults to English (matching langid's
        behaviour of always producing a label).
        """
        if not text.strip():
            return "en" if "en" in self._languages else self._languages[0]
        scored = self.scores(text)
        return min(scored, key=lambda lang: (-scored[lang], lang))

    def classify_many(self, texts: Sequence[str]) -> list[str]:
        """Classify a batch of texts."""
        return [self.classify(text) for text in texts]


def default_language_identifier() -> LanguageIdentifier:
    """Identifier trained on the bundled seed corpora.

    The English model is additionally trained on the platform's own
    vocabulary (including the synthetic hate lexicon, whose pseudo-words
    are not dictionary English but appear inside English comments) — the
    real langid.py was likewise trained on web text containing slang and
    slurs.  Without this, short toxic comments misclassify.
    """
    from repro.nlp.lexicons import (
        BENIGN_VOCAB,
        OBSCENE_VOCAB,
        OFFENSIVE_VOCAB,
        RUDE_VOCAB,
        hate_vocab,
    )

    corpora = dict(SEED_CORPORA)
    domain_text = " ".join(
        list(BENIGN_VOCAB)
        + list(OFFENSIVE_VOCAB)
        + list(OBSCENE_VOCAB)
        + list(RUDE_VOCAB)
        + hate_vocab()
    )
    # Repeat the base text so ordinary English n-gram statistics still
    # dominate; the domain vocabulary only needs to beat the OOV penalty.
    corpora["en"] = (corpora["en"] + " ") * 10 + (domain_text + " ") * 3
    return LanguageIdentifier().fit(corpora)
