"""Perspective attribute scoring models.

Each model inverts the platform text generator's emission code book
(:class:`repro.platform.textgen.EmissionModel`): vocabulary-class rates are
unbiased estimators of the latent attributes, combined with surface
signals (caps ratio, exclamation bursts, ad-hominem phrases).  A small
deterministic jitter derived from the text hash stands in for model
uncertainty, so scoring is a pure function — same text, same score, like
the real API.

Scoring runs on a chunk of texts at once: the features come from
:func:`~repro.perspective.lexicon.extract_features_many` as float64
columns, and each estimator evaluates its formula elementwise, taking
both sides of every branch and choosing with ``np.where``.  Every
expression keeps the operand order and association of the scalar
formula it replaced; elementwise float64 ``+ - * /`` round exactly like
the Python float operators, and :func:`_max`/:func:`_min` pick the
same operand as the builtins, so each score has the bits the scalar
formula gives it and does not depend on the chunk it was scored in.

Attribute names match the paper: SEVERE_TOXICITY, OBSCENE,
LIKELY_TO_REJECT, ATTACK_ON_AUTHOR.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.perspective.lexicon import FeatureBatch, extract_features_many

__all__ = [
    "ATTRIBUTES",
    "AttributeScorer",
    "PerspectiveModels",
    "score_comment",
]

ATTRIBUTES: tuple[str, ...] = (
    "SEVERE_TOXICITY",
    "OBSCENE",
    "LIKELY_TO_REJECT",
    "ATTACK_ON_AUTHOR",
)

# Inverse-emission constants (see EmissionModel in platform.textgen).
_OFFENSIVE_BASE, _OFFENSIVE_GAIN = 0.01, 0.50
_OBSCENE_BASE, _OBSCENE_GAIN = 0.005, 0.35
_HATE_THRESHOLD, _HATE_GAIN = 0.35, 0.55
_RUDE_GAIN = 0.40
_CAPS_GAIN = 0.45




def _max(first, *others) -> np.ndarray:
    """Elementwise ``max(first, *others)`` with Python's tie rule.

    Like the builtin, a later operand replaces the running result only
    when strictly greater, so ``_max(0.0, -0.0)`` is ``0.0`` (where
    ``np.maximum`` gives ``-0.0``).
    """
    result = first
    for other in others:
        result = np.where(other > result, other, result)
    return result


def _min(first, *others) -> np.ndarray:
    """Elementwise ``min(first, *others)`` with Python's tie rule."""
    result = first
    for other in others:
        result = np.where(other < result, other, result)
    return result


def _clip01(value: np.ndarray) -> np.ndarray:
    return _min(1.0, _max(0.0, value))


def _jitter(encoded: Sequence[bytes], salt: str, width: float = 0.08) -> np.ndarray:
    """Deterministic pseudo-noise in [-width/2, +width/2], one per text.

    Each value is the first 8 bytes of a blake2b digest of ``salt``,
    a unit separator and the text, read as an unsigned 64-bit fraction
    of 2**64.  ``encoded`` holds the texts as UTF-8 with
    ``surrogatepass``: a lone surrogate (which ``json.loads`` yields
    from a ``\\ud800`` escape) hashes instead of raising, and any other
    text keeps its bytes.  Each digest continues
    a copy of the hash of the salt and separator.
    """
    salted = hashlib.blake2b((salt + "\x1f").encode("utf-8"), digest_size=8)
    digests = []
    for data in encoded:
        digest = salted.copy()
        digest.update(data)
        digests.append(digest.digest())
    u = np.frombuffer(b"".join(digests), dtype=">u8").astype(np.float64) / 2.0**64
    return (u - 0.5) * width


def _saturation_multiplier(f: FeatureBatch) -> np.ndarray:
    """Undo the generator's probability normalisation for extreme comments.

    The emission model turns per-class rates into a categorical
    distribution; when the latent rates sum past ~0.95 the benign floor
    (0.05) kicks in and every class's observed share is deflated by
    ``R + 0.05``.  The observed union share S then satisfies
    ``S = R / (R + 0.05)``, so R is recoverable and the deflation can be
    inverted.  Below the saturation region shares equal rates and no
    correction applies.
    """
    s = _min(f.union_rate, 0.975)
    implied_total = 0.05 * s / (1.0 - s)
    return np.where(
        s <= 0.90, 1.0, _max(1.0, _min(2.2, implied_total + 0.05))
    )


def _estimate_obscene(f: FeatureBatch) -> np.ndarray:
    m = _saturation_multiplier(f)
    est_from_offensive = _clip01(
        (m * f.offensive_rate - _OFFENSIVE_BASE) / _OFFENSIVE_GAIN
    )
    est_from_obscene = _clip01(
        (m * f.obscene_rate - _OBSCENE_BASE) / _OBSCENE_GAIN
    )
    return _max(est_from_offensive, 0.9 * est_from_obscene)


def _estimate_toxicity(f: FeatureBatch) -> np.ndarray:
    from_hate = np.where(
        f.hate_rate > 0,
        _HATE_THRESHOLD + _saturation_multiplier(f) * f.hate_rate * (
            (1.0 - _HATE_THRESHOLD) / _HATE_GAIN
        ),
        0.0,
    )
    from_caps = _clip01(f.caps / _CAPS_GAIN) * 0.55
    from_obscene = 0.45 * _estimate_obscene(f)
    raw = _max(from_hate, from_caps, from_obscene)
    # Calibration stretch: token-rate estimates regress extreme comments
    # toward the middle (a 16-token sample underestimates a 40% hate-token
    # rate about half the time), so the upper half of the scale is
    # expanded to undo the shrinkage.
    raw = np.where(raw > 0.5, 0.5 + (raw - 0.5) * 1.6, raw)
    return _clip01(raw)


def _estimate_reject(f: FeatureBatch) -> np.ndarray:
    # Vocabulary evidence alone cannot certify the extreme (> 0.95) band;
    # only the graded bang channel reaches it.  This mirrors how the real
    # LIKELY_TO_REJECT model saturates: moderators reject rude comments at
    # high but not certain rates, while unambiguous markers max the score.
    from_rude = _min(
        0.93, _clip01(_saturation_multiplier(f) * f.rude_rate / _RUDE_GAIN)
    )
    from_tox = _min(0.94, 0.95 * _estimate_toxicity(f) + 0.05)
    from_obscene = 0.7 * _estimate_obscene(f)
    estimate = _max(from_rude, from_tox, from_obscene)
    # The generator appends a bang run only above 0.75 latent reject,
    # with run length growing linearly in (reject - 0.75).
    graded = 0.74 + 0.25 * _min(1.0, (f.bang_run - 3) / 7.0)
    estimate = np.where(
        f.bang_run >= 3, _max(estimate, graded), estimate
    )
    return _clip01(estimate)


def _estimate_attack(f: FeatureBatch) -> np.ndarray:
    with_phrase = _clip01(0.62 + 0.5 * f.offensive_rate + 0.3 * f.caps)
    background = (
        0.30 * _clip01(f.rude_rate / _RUDE_GAIN)
        + 0.22 * _estimate_obscene(f)
        + 0.10 * f.caps
    )
    return np.where(f.has_attack_phrase, with_phrase, _clip01(background))


AttributeScorer = Callable[[FeatureBatch], np.ndarray]

_SCORERS: dict[str, AttributeScorer] = {
    "SEVERE_TOXICITY": _estimate_toxicity,
    "OBSCENE": _estimate_obscene,
    "LIKELY_TO_REJECT": _estimate_reject,
    "ATTACK_ON_AUTHOR": _estimate_attack,
}


def _score_rows(
    texts: Sequence[str],
    table: dict[str, int],
    attributes: Iterable[str] = ATTRIBUTES,
) -> list[dict[str, float]]:
    """One score dict per text, from one batch featurization.

    Each text is encoded once for every attribute's jitter, and each row
    is built once from the attribute columns.
    """
    scorers = [(attribute, _SCORERS[attribute]) for attribute in attributes]
    if not scorers:
        return [{} for _ in texts]
    features = extract_features_many(texts, table)
    encoded = [text.encode("utf-8", "surrogatepass") for text in texts]
    columns = [
        _clip01(scorer(features) + _jitter(encoded, attribute))
        for attribute, scorer in scorers
    ]
    names = [attribute for attribute, _ in scorers]
    return [dict(zip(names, row)) for row in np.column_stack(columns).tolist()]


def score_comment(
    text: str, attributes: Iterable[str] = ATTRIBUTES
) -> dict[str, float]:
    """Score one comment on the requested attributes.

    Raises:
        KeyError: unknown attribute name.
    """
    return _score_rows([text], {}, attributes)[0]


class PerspectiveModels:
    """Batch scoring facade.

    The models own the token class table their featurizer fills, so a
    token is stemmed once per models instance.  They keep no text memo:
    every call scores its texts, and
    :class:`~repro.core.scoring.ScoreStore` is what scores a text once
    however many analyses ask for it.
    """

    def __init__(self):
        self._token_classes: dict[str, int] = {}
        self.calls = 0

    def score(self, text: str) -> dict[str, float]:
        """All-attribute scores for one comment."""
        return self.score_many([text])[0]

    def score_many(
        self, texts: Iterable[str]
    ) -> list[dict[str, float]]:
        """Scores for a batch of comments, in input order.

        The batch is deduplicated and scored in one batch call, each
        distinct text once; ``calls`` counts the texts scored.  Equal
        texts share one row.
        """
        batch = list(texts)
        unique = list(dict.fromkeys(batch))
        self.calls += len(unique)
        by_text = dict(zip(unique, _score_rows(unique, self._token_classes)))
        return [by_text[text] for text in batch]

    def attribute_values(
        self, texts: Iterable[str], attribute: str
    ) -> list[float]:
        """One attribute's scores over a batch."""
        if attribute not in _SCORERS:
            raise KeyError(f"unknown Perspective attribute {attribute!r}")
        return [row[attribute] for row in self.score_many(texts)]
