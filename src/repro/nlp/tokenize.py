"""Text cleaning and tokenisation.

The paper tokenises each comment, stems tokens, and matches them against a
hate dictionary (§3.5.1); the SVM pipeline uses "1 and 2-grams of cleaned
and stemmed word tokens" (§3.5.3).  This module provides that cleaning and
tokenisation layer.
"""

from __future__ import annotations

import re
import string

__all__ = ["clean_text", "tokenize", "sentence_count", "caps_ratio"]

_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HTML_ENTITY_RE = re.compile(r"&[a-z]+;|&#\d+;", re.IGNORECASE)
_TOKEN_RE = re.compile(r"[a-z0-9']+")
_SENTENCE_RE = re.compile(r"[.!?]+")
_ASCII_LETTERS = string.ascii_letters.encode("ascii")
_ASCII_UPPER = string.ascii_uppercase.encode("ascii")


def clean_text(text: str) -> str:
    """Normalise raw comment text for feature extraction.

    Strips URLs, @-mentions, and HTML entities, lower-cases, and collapses
    whitespace.  The transformation is deliberately conservative: it never
    invents tokens, only removes noise.
    """
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HTML_ENTITY_RE.sub(" ", text)
    text = text.lower()
    return " ".join(text.split())


def tokenize(text: str, clean: bool = True) -> list[str]:
    """Split text into lowercase word tokens.

    Args:
        text: raw or pre-cleaned text.
        clean: apply :func:`clean_text` first (default).

    Returns:
        List of tokens matching ``[a-z0-9']+`` with bare apostrophes
        stripped.
    """
    if clean:
        text = clean_text(text)
    else:
        text = text.lower()
    tokens = _TOKEN_RE.findall(text)
    if "'" not in text:
        return tokens
    return [tok.strip("'") for tok in tokens if tok.strip("'")]


def sentence_count(text: str) -> int:
    """Rough sentence count (used as a Perspective-model feature)."""
    parts = [p for p in _SENTENCE_RE.split(text) if p.strip()]
    return max(1, len(parts))


def caps_ratio(text: str) -> float:
    """Fraction of ASCII letters that are upper-case.

    SHOUTED comments are a strong informal toxicity signal; the simulated
    Perspective models use this as one input feature.  Letters are
    counted on the UTF-8 bytes: no other character's encoding contains
    an ASCII byte, so deleting the letter bytes counts the letters.
    """
    data = text.encode("utf-8", "surrogatepass")
    letters = len(data) - len(data.translate(None, _ASCII_LETTERS))
    if not letters:
        return 0.0
    return (len(data) - len(data.translate(None, _ASCII_UPPER))) / letters
