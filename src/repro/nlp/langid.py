"""Character n-gram language identification.

The paper classifies all 1.68M comments with ``langid.py`` (§4.2.3), finding
94% English and 2% German.  This module implements the same role from
scratch: a multinomial naive-Bayes classifier over character n-grams,
trained on bundled seed corpora for the languages that matter in the
Dissenter corpus (English, German, French, Spanish, Italian).

The seed corpora are short passages of everyday text; character-trigram
statistics of function words dominate, which is exactly why this family of
classifiers works well on short comments.

A trained identifier holds one float64 matrix of per-language
log-probabilities: row 0 holds the defaults for unseen n-grams, and row
i + 1 the i-th training n-gram in code-point order.  Scoring is batched
(:meth:`LanguageIdentifier.scores_many`); ``scores`` and ``classify`` are
its batch of one.  Each bounded chunk of texts is lowercased, joined with
the ``order - 1`` ``\\x00`` padding and encoded once to code points.  A
dense table codes each character (0: outside the training alphabet), and
``order - 1`` prefix-table lookups turn every window into its n-gram's
row, all as whole-array operations.

Each log-likelihood is the text's n-gram rows summed strictly left to
right from ``0.0``, as adding one n-gram at a time would: position j is
added to every text longer than j at once, and the few longest texts
finish alone, carrying their totals through bounded blocks of
``np.add.accumulate``.  ``np.sum`` (pairwise along a contiguous axis),
``math.fsum`` and Python 3.12's ``sum`` can each round differently.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from repro.nlp.ngrams import char_ngrams

__all__ = [
    "LanguageIdentifier",
    "default_corpora",
    "default_language_identifier",
    "SEED_CORPORA",
]

#: Characters per scoring chunk: a chunk holds the texts that end in one
#: bin this wide, so it spans at most this plus one text.  Its temporaries
#: take ~40 bytes per character, a few MB.
_CHUNK_CHARS = 1 << 16

#: Log-prob rows a long text gathers at a time when it carries its total.
_GATHER_ROWS = 4096

#: What finishing one text alone costs, in steps of the shared per-position
#: loop; sets where the longest texts leave that loop.
_CARRY_STEPS = 4

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
        self._char_codes = np.zeros(1, dtype=np.intp)
        self._width = 1
        self._prefix_tables: list[np.ndarray] = []
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
        grams = sorted(vocab)
        self._index_grams(grams)
        gram_rows = {gram: row for row, gram in enumerate(grams, start=1)}
        self._log_probs = np.empty((len(grams) + 1, len(self._languages)))
        for column, lang in enumerate(self._languages):
            counts = counts_per_lang[lang]
            total = sum(counts.values()) + self._smoothing * max(1, len(vocab))
            self._log_probs[:, column] = math.log(self._smoothing / total)
            for gram, count in counts.items():
                self._log_probs[gram_rows[gram], column] = math.log(
                    (count + self._smoothing) / total
                )
        return self

    def _index_grams(self, grams: list[str]) -> None:
        """Build the character codes and prefix tables that map a window
        of characters to its gram's row (0 for an unseen gram).

        Characters are coded 1..A in code-point order (0: unseen).  Each
        table maps ``rank * width + code`` of a k-character prefix and
        its next character to the rank of the (k+1)-character prefix
        among the trained ones, 0 if there is none.  Ranks follow code
        point order, so the last level's rank of ``grams[i]`` is
        ``i + 1``: its row in ``_log_probs``.
        """
        alphabet = sorted(set("".join(grams)))
        top = ord(alphabet[-1]) if alphabet else 0
        self._char_codes = np.zeros(top + 2, dtype=np.intp)
        self._char_codes[[ord(char) for char in alphabet]] = np.arange(
            1, len(alphabet) + 1
        )
        self._width = len(alphabet) + 1
        codes = self._char_codes[_code_points("".join(grams))]
        codes = codes.reshape(len(grams), self._order)
        ranks, ranked = codes[:, 0], len(alphabet)
        self._prefix_tables = []
        for step in range(1, self._order):
            keys = ranks * self._width + codes[:, step]
            prefixes = np.unique(keys)
            table = np.zeros((ranked + 1) * self._width, dtype=np.intp)
            table[prefixes] = np.arange(1, len(prefixes) + 1)
            self._prefix_tables.append(table)
            ranks, ranked = table[keys], len(prefixes)

    def scores(self, text: str) -> dict[str, float]:
        """Log-likelihood of the text under each language model."""
        return dict(zip(self._languages, self.scores_many([text])[0].tolist()))

    def scores_many(self, texts: Sequence[str]) -> np.ndarray:
        """Log-likelihoods: one row per text, one column per language.

        Columns follow :attr:`languages`.  Each entry is the text's gram
        log-probs summed from left to right, starting from ``0.0``.
        """
        if not self._languages:
            raise RuntimeError("identifier must be trained before use")
        scored = np.empty((len(texts), len(self._languages)))
        if not len(texts):
            return scored
        # A chunk holds the texts that end in one _CHUNK_CHARS-wide bin of
        # the batch's characters, so it spans at most one bin plus a text.
        ends = np.cumsum(np.fromiter(map(len, texts), np.intp, len(texts)))
        bounds = (np.flatnonzero(np.diff(ends // _CHUNK_CHARS)) + 1).tolist()
        for start, end in zip([0, *bounds], [*bounds, len(texts)]):
            scored[start:end] = self._score_chunk(texts[start:end])
        return scored

    def _score_chunk(self, texts: Sequence[str]) -> np.ndarray:
        """Score one chunk: encode it once, then sum each text's rows."""
        lowered = [text.lower() for text in texts]
        # Text i's grams are the windows of its padded span; joined with
        # one padding between neighbours, those spans tile the string's
        # windows exactly, text after text.
        padding = "\x00" * (self._order - 1)
        points = _code_points(padding + padding.join(lowered) + padding)
        codes = self._char_codes.take(points, mode="clip")
        windows = len(codes) - self._order + 1
        rows = codes[:windows]
        for step, table in enumerate(self._prefix_tables, start=1):
            rows = table.take(rows * self._width + codes[step : step + windows])
        counts = np.fromiter(map(len, lowered), dtype=np.intp, count=len(lowered))
        return self._sum_rows(rows, counts + (self._order - 1))

    def _sum_rows(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Sum each text's log-prob rows strictly in gram order.

        ``rows`` holds the texts' gram rows back to back, ``counts[i]``
        of them for text i.  Position j's rows are added to every text
        longer than j at once (sorted longest first, those texts are a
        prefix), so each total is the same left-to-right sum as adding
        one gram at a time.  The longest texts stop sharing the loop
        where finishing them alone is cheaper, and carry their totals
        through bounded blocks of ``np.add.accumulate``.
        """
        by_length = np.argsort(-counts, kind="stable")
        lengths = counts[by_length]
        firsts = (np.cumsum(counts) - counts)[by_length]
        # Carrying the k longest texts leaves ``after[k]`` shared steps.
        after = np.append(lengths, 0)
        carried = int(np.argmin(np.arange(len(after)) * _CARRY_STEPS + after))
        shared = int(after[carried])
        active = len(lengths) - np.searchsorted(
            lengths[::-1], np.arange(shared), side="right"
        )
        totals = np.zeros((len(counts), len(self._languages)))
        for position, texts in enumerate(active.tolist()):
            gathered = rows.take(firsts[:texts] + position)
            totals[:texts] += self._log_probs.take(gathered, axis=0)
        for text in range(carried):
            first = int(firsts[text])
            tail = rows[first + shared : first + int(lengths[text])]
            for start in range(0, len(tail), _GATHER_ROWS):
                block = self._log_probs.take(tail[start : start + _GATHER_ROWS], axis=0)
                block[0] += totals[text]
                totals[text] = np.add.accumulate(block, axis=0, out=block)[-1]
        scored = np.empty_like(totals)
        scored[by_length] = totals
        return scored

    def classify(self, text: str) -> str:
        """Most likely language; ties broken alphabetically.

        Empty/whitespace-only text defaults to English (matching langid's
        behaviour of always producing a label).
        """
        return self.classify_many([text])[0]

    def classify_many(self, texts: Sequence[str]) -> list[str]:
        """Classify a batch of texts (see :meth:`classify`)."""
        best = np.argmax(self.scores_many(texts), axis=1).tolist()
        blank = "en" if "en" in self._languages else self._languages[0]
        return [
            self._languages[column] if text.strip() else blank
            for text, column in zip(texts, best)
        ]


def _code_points(text: str) -> np.ndarray:
    """The text's code points, one ``uint32`` per character."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def default_corpora() -> dict[str, str]:
    """The bundled seed corpora, with the platform vocabulary in English.

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
    return corpora


def default_language_identifier() -> LanguageIdentifier:
    """Identifier trained on :func:`default_corpora`."""
    return LanguageIdentifier().fit(default_corpora())
