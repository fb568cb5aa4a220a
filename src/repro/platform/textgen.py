"""Latent-conditioned comment text generation.

Every synthetic comment carries a hidden :class:`CommentLatent` vector
(toxicity, obscenity, attack-on-author, reject-worthiness).  This module
turns that vector into text by mixing vocabulary classes at rates that are
monotone in the latents: hate terms appear above a toxicity threshold,
offensive/obscene vocabulary scales with obscenity, ad-hominem phrases fire
on high attack scores, dismissive "rude" vocabulary and SHOUTING scale with
reject-worthiness.  The simulated Perspective models and the dictionary
scorer then face the same inference problem the paper's classifiers faced:
recover the nature of a comment from its words.

Non-English comments (German, French, Spanish, Italian) are generated from
the langid seed corpora vocabulary so that language identification is a
real classification task.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.nlp.langid import SEED_CORPORA
from repro.nlp.lexicons import (
    ATTACK_PHRASES,
    BENIGN_VOCAB,
    OBSCENE_VOCAB,
    OFFENSIVE_VOCAB,
    RUDE_VOCAB,
    hate_vocab,
)
from repro.platform.draws import Draws, WeightedPicker, checked_cdf
from repro.platform.entities import CommentLatent

__all__ = ["CommentTextGenerator", "EMISSION"]


class EmissionModel:
    """Latent -> vocabulary-rate mapping (the generator's code book).

    Kept as a named object so the Perspective simulator's docstrings can
    point at the exact rates it is inverting.
    """

    # Token-class rates as functions of the latent vector.
    BASE_OFFENSIVE = 0.01
    OFFENSIVE_GAIN = 0.50        # * obscene
    BASE_OBSCENE = 0.005
    OBSCENE_GAIN = 0.35          # * obscene
    HATE_THRESHOLD = 0.35        # hate terms only above this toxicity
    HATE_GAIN = 0.55             # * (toxicity - threshold) / (1 - threshold)
    RUDE_GAIN = 0.40             # * reject
    ATTACK_FIRE = 0.55           # attack phrase emitted above this
    CAPS_GAIN = 0.45             # fraction of words upper-cased ~ toxicity

    def offensive_rate(self, latent: CommentLatent) -> float:
        return self.BASE_OFFENSIVE + self.OFFENSIVE_GAIN * latent.obscene

    def obscene_rate(self, latent: CommentLatent) -> float:
        return self.BASE_OBSCENE + self.OBSCENE_GAIN * latent.obscene

    def hate_rate(self, latent: CommentLatent) -> float:
        if latent.toxicity <= self.HATE_THRESHOLD:
            return 0.0
        span = (latent.toxicity - self.HATE_THRESHOLD) / (1.0 - self.HATE_THRESHOLD)
        return self.HATE_GAIN * span

    def rude_rate(self, latent: CommentLatent) -> float:
        return self.RUDE_GAIN * latent.reject

    def caps_fraction(self, latent: CommentLatent) -> float:
        return self.CAPS_GAIN * max(latent.toxicity, latent.reject - 0.3)

    def fires_attack(self, latent: CommentLatent) -> bool:
        return latent.attack >= self.ATTACK_FIRE


EMISSION = EmissionModel()

_FOREIGN_VOCABS: dict[str, tuple[str, ...]] = {
    lang: tuple(sorted(set(text.split())))
    for lang, text in SEED_CORPORA.items()
    if lang != "en"
}


def class_probs(latent: CommentLatent) -> list[float]:
    """A comment's word-class mix: offensive, obscene, hate, rude, benign.

    numpy adds fewer than eight float64 values left to right, as these
    sums do, so the values have the bits of the float64 array expression
    they replace (builtin ``sum()`` compensates on Python 3.12+).
    """
    p = [
        EMISSION.offensive_rate(latent),
        EMISSION.obscene_rate(latent),
        EMISSION.hate_rate(latent),
        EMISSION.rude_rate(latent),
    ]
    p.append(max(0.05, 1.0 - (p[0] + p[1] + p[2] + p[3])))
    total = p[0] + p[1] + p[2] + p[3] + p[4]
    return [value / total for value in p]


class CommentTextGenerator:
    """Generates comment text from latent vectors.

    Args:
        rng: the world's RNG stream.
        mean_tokens: mean comment length (token count is Poisson around
            this, floored at 3).
    """

    def __init__(self, rng: np.random.Generator, mean_tokens: float = 16.0):
        self._draws = Draws(rng)
        self._mean_tokens = mean_tokens
        # Zipfian benign-word frequencies: BENIGN_VOCAB is ordered
        # function-words-first, so rank weighting makes "the"/"is"/"and"
        # dominate — real English character statistics, which is what
        # lets the language identifier work on short comments.
        ranks = np.arange(1, len(BENIGN_VOCAB) + 1, dtype=float)
        benign_probs = (1.0 / (ranks + 4.0))
        benign_probs /= benign_probs.sum()
        self._benign_picker = WeightedPicker(BENIGN_VOCAB, benign_probs)
        # Word-class pools in the order of class_probs; class 4 (benign)
        # is drawn Zipf-weighted, the rest uniformly.
        self._pools: tuple[tuple[str, ...], ...] = (
            OFFENSIVE_VOCAB, OBSCENE_VOCAB, tuple(hate_vocab()), RUDE_VOCAB,
        )

    def generate(self, latent: CommentLatent, language: str = "en") -> str:
        """Emit one comment's text."""
        if language != "en":
            return self._generate_foreign(language)
        draws = self._draws
        rng = draws.rng
        length = max(3, int(rng.poisson(self._mean_tokens)))

        cdf = checked_cdf(class_probs(latent))

        # All class draws come first, as one random(length) call (cheaper
        # than length single draws), then one draw per word.
        pools = self._pools
        benign = self._benign_picker.pick
        pick = draws.pick
        words = []
        for u in rng.random(length).tolist():
            c = bisect_right(cdf, u)
            words.append(benign(draws) if c == 4 else pick(pools[c]))

        caps = EMISSION.caps_fraction(latent)
        if caps > 0:
            words = [
                w.upper() if u < caps else w
                for w, u in zip(words, rng.random(length).tolist())
            ]

        text = " ".join(words)
        if EMISSION.fires_attack(latent):
            phrase = pick(ATTACK_PHRASES)
            insult = pick(OFFENSIVE_VOCAB)
            text = f"{phrase} {insult}. {text}"
        if latent.reject > 0.75:
            # Exclamation run length grows with rejection-worthiness: a
            # graded surface channel the reject model can read back.
            bangs = 3 + int(round(8 * (latent.reject - 0.75) / 0.25))
            text += "!" * bangs
        return text

    def _generate_foreign(self, language: str) -> str:
        vocab = _FOREIGN_VOCABS.get(language)
        if vocab is None:
            raise ValueError(f"no vocabulary for language {language!r}")
        draws = self._draws
        length = max(4, int(draws.rng.poisson(self._mean_tokens)))
        return " ".join(draws.pick_many(vocab, length))

    def generate_bio(self, mentions_censorship: bool) -> str:
        """A short profile biography.

        §2: "A full 25% of Dissenter users we examine in this study refer
        to 'censorship' in their profile's biography."
        """
        draws = self._draws
        words = draws.pick_many(BENIGN_VOCAB, draws.integers(4, 12))
        if mentions_censorship:
            position = draws.integers(0, len(words) + 1)
            words.insert(position, "censorship")
        return " ".join(words)

    def generate_title(self, topic_words: int = 6) -> str:
        """A news-article-style title."""
        return " ".join(self._draws.pick_many(BENIGN_VOCAB, topic_words)).capitalize()
