"""Per-text Perspective scoring: the reference for the batch featurizer.

This is the scoring path production used before features were computed
for a chunk of texts at once: tokenise one comment, stem every token
occurrence, test it against each stemmed vocabulary set, then run the
four attribute estimators and the blake2b jitter on Python floats,
with the regex caps ratio, and the per-text ``clean_text``/``tokenize``
with three regex subs, a ``lower()`` and a ``findall`` per comment.  The
bodies are unchanged; only the vocabulary sets, the stemmer and the
constants are imported from production, so a change to any of those
moves both paths alike.

``tests/perspective/test_batch_parity.py`` requires
:meth:`repro.perspective.models.PerspectiveModels.score_many` and
:func:`repro.perspective.lexicon.extract_features` to agree with this
module bit for bit.
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable, Iterable

from repro.nlp.lexicons import ATTACK_PHRASES
from repro.perspective.lexicon import _STEMMER, CommentFeatures, _stemmed_sets
from repro.perspective.models import (
    _CAPS_GAIN,
    _HATE_GAIN,
    _HATE_THRESHOLD,
    _OBSCENE_BASE,
    _OBSCENE_GAIN,
    _OFFENSIVE_BASE,
    _OFFENSIVE_GAIN,
    _RUDE_GAIN,
    ATTRIBUTES,
)

__all__ = [
    "caps_ratio",
    "clean_text",
    "extract_features",
    "score_comment",
    "tokenize",
]

_ALPHA_RE = re.compile(r"[A-Za-z]")
_UPPER_RE = re.compile(r"[A-Z]")
_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HTML_ENTITY_RE = re.compile(r"&[a-z]+;|&#\d+;", re.IGNORECASE)
_TOKEN_RE = re.compile(r"[a-z0-9']+")


def clean_text(text: str) -> str:
    """Strip URLs, @-mentions and HTML entities, lower-case, and
    collapse whitespace."""
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HTML_ENTITY_RE.sub(" ", text)
    text = text.lower()
    return " ".join(text.split())


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of the cleaned text, bare apostrophes
    stripped."""
    text = clean_text(text)
    tokens = _TOKEN_RE.findall(text)
    if "'" not in text:
        return tokens
    return [tok.strip("'") for tok in tokens if tok.strip("'")]


def caps_ratio(text: str) -> float:
    """Fraction of alphabetic characters that are upper-case."""
    letters = _ALPHA_RE.findall(text)
    if not letters:
        return 0.0
    uppers = _UPPER_RE.findall(text)
    return len(uppers) / len(letters)


def _longest_bang_run(text: str) -> int:
    longest = run = 0
    for ch in text:
        run = run + 1 if ch == "!" else 0
        longest = max(longest, run)
    return longest


def extract_features(text: str) -> CommentFeatures:
    """Compute :class:`CommentFeatures` for a comment."""
    sets = _stemmed_sets()
    tokens = tokenize(text)
    n = len(tokens)
    counts = {name: 0 for name in sets}
    union = 0
    for token in tokens:
        stemmed = _STEMMER.stem(token)
        matched_any = False
        for name, vocab in sets.items():
            if stemmed in vocab or token in vocab:
                counts[name] += 1
                matched_any = True
        if matched_any:
            union += 1
    lowered = text.lower()
    return CommentFeatures(
        n_tokens=n,
        offensive_rate=counts["offensive"] / n if n else 0.0,
        obscene_rate=counts["obscene"] / n if n else 0.0,
        rude_rate=counts["rude"] / n if n else 0.0,
        hate_rate=counts["hate"] / n if n else 0.0,
        union_rate=union / n if n else 0.0,
        caps=caps_ratio(text),
        has_attack_phrase=any(p in lowered for p in ATTACK_PHRASES),
        bang_run=_longest_bang_run(text),
    )


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, value))


def _jitter(text: str, salt: str, width: float = 0.08) -> float:
    """Deterministic pseudo-noise in [-width/2, +width/2]."""
    digest = hashlib.blake2b(
        (salt + "\x1f" + text).encode("utf-8", "surrogatepass"), digest_size=8
    ).digest()
    u = int.from_bytes(digest, "big") / 2**64
    return (u - 0.5) * width


def _saturation_multiplier(f: CommentFeatures) -> float:
    s = min(f.union_rate, 0.975)
    if s <= 0.90:
        return 1.0
    implied_total = 0.05 * s / (1.0 - s)
    return max(1.0, min(2.2, implied_total + 0.05))


def _estimate_obscene(f: CommentFeatures) -> float:
    m = _saturation_multiplier(f)
    est_from_offensive = _clip01(
        (m * f.offensive_rate - _OFFENSIVE_BASE) / _OFFENSIVE_GAIN
    )
    est_from_obscene = _clip01(
        (m * f.obscene_rate - _OBSCENE_BASE) / _OBSCENE_GAIN
    )
    return max(est_from_offensive, 0.9 * est_from_obscene)


def _estimate_toxicity(f: CommentFeatures) -> float:
    if f.hate_rate > 0:
        from_hate = _HATE_THRESHOLD + _saturation_multiplier(f) * f.hate_rate * (
            (1.0 - _HATE_THRESHOLD) / _HATE_GAIN
        )
    else:
        from_hate = 0.0
    from_caps = _clip01(f.caps / _CAPS_GAIN) * 0.55
    from_obscene = 0.45 * _estimate_obscene(f)
    raw = max(from_hate, from_caps, from_obscene)
    if raw > 0.5:
        raw = 0.5 + (raw - 0.5) * 1.6
    return _clip01(raw)


def _estimate_reject(f: CommentFeatures) -> float:
    from_rude = min(
        0.93, _clip01(_saturation_multiplier(f) * f.rude_rate / _RUDE_GAIN)
    )
    from_tox = min(0.94, 0.95 * _estimate_toxicity(f) + 0.05)
    from_obscene = 0.7 * _estimate_obscene(f)
    estimate = max(from_rude, from_tox, from_obscene)
    if f.bang_run >= 3:
        graded = 0.74 + 0.25 * min(1.0, (f.bang_run - 3) / 7.0)
        estimate = max(estimate, graded)
    return _clip01(estimate)


def _estimate_attack(f: CommentFeatures) -> float:
    if f.has_attack_phrase:
        return _clip01(0.62 + 0.5 * f.offensive_rate + 0.3 * f.caps)
    background = (
        0.30 * _clip01(f.rude_rate / _RUDE_GAIN)
        + 0.22 * _estimate_obscene(f)
        + 0.10 * f.caps
    )
    return _clip01(background)


_SCORERS: dict[str, Callable[[CommentFeatures], float]] = {
    "SEVERE_TOXICITY": _estimate_toxicity,
    "OBSCENE": _estimate_obscene,
    "LIKELY_TO_REJECT": _estimate_reject,
    "ATTACK_ON_AUTHOR": _estimate_attack,
}


def score_comment(
    text: str, attributes: Iterable[str] = ATTRIBUTES
) -> dict[str, float]:
    """Score one comment on the requested attributes.

    Raises:
        KeyError: unknown attribute name.
    """
    features = extract_features(text)
    scores: dict[str, float] = {}
    for attribute in attributes:
        scorer = _SCORERS[attribute]
        raw = scorer(features)
        scores[attribute] = _clip01(raw + _jitter(text, attribute))
    return scores
