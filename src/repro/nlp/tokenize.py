"""Text cleaning and tokenisation, a chunk of texts at a time.

The paper tokenises each comment, stems tokens, and matches them against a
hate dictionary (§3.5.1); the SVM pipeline uses "1 and 2-grams of cleaned
and stemmed word tokens" (§3.5.3).  This module provides that cleaning and
tokenisation layer.

A :class:`TextChunk` joins its texts with :data:`_SEPARATOR`, a space, a
record separator (``\\x1e``) and a space, so each cleaning pattern,
``lower()`` and the token pass run once per chunk.  Nothing crosses the
separator: it is whitespace to the patterns, so the URL pattern's
``\\S+`` stops there as at the end of a text, and the mention's ``\\w+``,
the entity's ``[a-z]+;`` and every token need characters it does not
hold; a space is neither cased nor case-ignorable, so the final-sigma
context of ``lower()`` stops there too.  A text that contains ``\\x1e``
is its own chunk of one (:func:`text_chunks`).  :func:`tokenize` is a
chunk of one.
"""

from __future__ import annotations

import re
import string
from typing import Sequence

import numpy as np

__all__ = [
    "TOKEN_BREAK",
    "TextChunk",
    "caps_ratio",
    "clean_text",
    "sentence_count",
    "text_chunks",
    "tokenize",
]

_BREAK = "\x1e"
_SEPARATOR = f" {_BREAK} "

#: The token :meth:`TextChunk.tokens` puts between two texts' tokens.
TOKEN_BREAK = "|"

#: Characters per chunk (see :func:`text_chunks`): a chunk's token list
#: and byte views then take a few MB, whatever the batch size.
_CHUNK_CHARS = 1 << 16

_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HTML_ENTITY_RE = re.compile(r"&[a-z]+;|&#\d+;", re.IGNORECASE)
_SENTENCE_RE = re.compile(r"[.!?]+")

# The only characters outside ASCII whose lower case holds an ASCII
# character (U+0130 lowers to "i" and a combining dot, U+212A to "k");
# tests/nlp/test_tokenize.py checks the list against the interpreter.
_LOWER_TO_ASCII = ("\u0130", "\u212a")


def _table(pairs: dict[int, int], default: int) -> bytes:
    return bytes(pairs.get(byte, default) for byte in range(256))


_TOKEN_BYTES = (string.ascii_lowercase + string.digits + "'").encode("ascii")
# Tokens are the runs of [a-z0-9'] in the lower-cased text; every other
# byte becomes a space, and in a chunk of several texts the record
# separator becomes TOKEN_BREAK.
_TEXT_TOKENS = _table({byte: byte for byte in _TOKEN_BYTES}, ord(" "))
_CHUNK_TOKENS = _table(
    {**{byte: byte for byte in _TOKEN_BYTES}, ord(_BREAK): ord(TOKEN_BREAK)},
    ord(" "),
)
_LETTERS = string.ascii_letters.encode("ascii")
_UPPER = string.ascii_uppercase.encode("ascii")


def _all_but(keep: bytes) -> bytes:
    return bytes(byte for byte in range(256) if byte not in keep)


_NOT_LETTERS = _all_but(_LETTERS)
_NOT_UPPER = _all_but(_UPPER)
_NOT_LETTERS_OR_BREAK = _all_but(_LETTERS + _BREAK.encode())
_NOT_UPPER_OR_BREAK = _all_but(_UPPER + _BREAK.encode())


def _clean(text: str, raw: bytes, lowered: bytes) -> str:
    """``text`` with URLs, @-mentions and HTML entities blanked.

    Each substitution runs only when a literal its pattern must match is
    present: ``"://"`` or a lower-cased ``"www."`` for URLs (the pattern
    folds only ASCII letters there), ``"@"`` and ``"&"``.  ``raw`` and
    ``lowered`` are :class:`TextChunk`'s byte views of ``text``.
    """
    if b"://" in raw or b"www." in lowered:
        text = _URL_RE.sub(" ", text)
    if b"@" in raw:
        text = _MENTION_RE.sub(" ", text)
    if b"&" in raw:
        text = _HTML_ENTITY_RE.sub(" ", text)
    return text


def _strip_apostrophes(spaced: bytes) -> bytearray:
    """``spaced`` with every run of apostrophes that begins or ends a
    token blanked.

    In ``spaced`` every byte but the token characters and TOKEN_BREAK is
    a space, so such a run touches a space or an end; a run between two
    other token characters is inside a token and stays.
    """
    edged = bytearray(spaced)
    at = spaced.find(b"'")
    while at >= 0:
        end = at + 1
        while spaced[end:end + 1] == b"'":
            end += 1
        if spaced[at - 1:at] in (b"", b" ") or spaced[end:end + 1] in (b"", b" "):
            edged[at:end] = b" " * (end - at)
        at = spaced.find(b"'", end)
    return edged


class TextChunk:
    """Texts joined into one string, for one pass of each pattern.

    Attributes:
        texts: the texts, in order.  None holds ``"\\x1e"`` unless it is
            the only one.
        raw: the join as ASCII bytes, every other code point written
            ``"?"``, so byte ``i`` is code point ``i`` of the join and a
            text's ASCII letters, ``!`` and spaces keep their places.
        lowered: the same view of the lower-cased join.
    """

    __slots__ = ("texts", "raw", "lowered", "_joined")

    def __init__(self, texts: Sequence[str]):
        joined = _SEPARATOR.join(texts)
        if len(texts) > 1 and joined.count(_BREAK) != len(texts) - 1:
            raise ValueError("a text of a chunk of several holds '\\x1e'")
        self.texts = texts
        self._joined = joined
        self.raw = joined.encode("ascii", "replace")
        if any(char in joined for char in _LOWER_TO_ASCII):
            self.lowered = joined.lower().encode("ascii", "replace")
        else:
            self.lowered = self.raw.lower()

    def tokens(self) -> list[str]:
        """Every text's tokens, with :data:`TOKEN_BREAK` between texts.

        A text's tokens are the runs of ``[a-z0-9']`` in its cleaned,
        lower-cased form, with leading and trailing apostrophes stripped
        and tokens left empty dropped.
        """
        cleaned = _clean(self._joined, self.raw, self.lowered)
        view = self.lowered
        if cleaned is not self._joined:
            view = cleaned.lower().encode("ascii", "replace")
        table = _CHUNK_TOKENS if len(self.texts) > 1 else _TEXT_TOKENS
        spaced = view.translate(table)
        if b"'" in spaced:
            spaced = _strip_apostrophes(spaced)
        return spaced.decode("ascii").split()

    def owners(self, view: bytes, positions: np.ndarray) -> np.ndarray:
        """The text holding each byte position of ``view`` (``raw`` or
        ``lowered``)."""
        if len(self.texts) == 1:
            return np.zeros(len(positions), dtype=np.int64)
        data = np.frombuffer(view, dtype=np.uint8)
        return np.searchsorted(np.flatnonzero(data == ord(_BREAK)), positions)

    def caps_ratios(self) -> np.ndarray:
        """Per text, the fraction of its ASCII letters that are upper-case.

        Counted on ``raw``: no code point outside ASCII is a letter here,
        so deleting every byte but the letters (and the separators) and
        measuring what is left counts them.
        """
        several = len(self.texts) > 1
        letters = self._counts(_NOT_LETTERS_OR_BREAK if several else _NOT_LETTERS)
        upper = self._counts(_NOT_UPPER_OR_BREAK if several else _NOT_UPPER)
        return np.divide(
            upper, letters, out=np.zeros(len(self.texts)), where=letters > 0
        )

    def _counts(self, delete: bytes) -> np.ndarray:
        """Per text, how many of its bytes survive deleting ``delete``."""
        if not self.texts:
            return np.zeros(0, dtype=np.int64)
        parts = self.raw.translate(None, delete).split(b"\x1e")
        return np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))


def text_chunks(texts: Sequence[str]) -> list[TextChunk]:
    """``texts`` as chunks of about :data:`_CHUNK_CHARS` characters.

    A chunk holds the texts that end in one ``_CHUNK_CHARS``-wide bin of
    the batch's characters, so it spans at most one bin plus a text.  A
    text that holds ``"\x1e"`` is a chunk of one.
    """
    if not texts:
        return [TextChunk(texts)]
    ends = np.cumsum(np.fromiter(map(len, texts), np.intp, len(texts)))
    bounds = (np.flatnonzero(np.diff(ends // _CHUNK_CHARS)) + 1).tolist()
    chunks: list[TextChunk] = []
    for start, end in zip([0, *bounds], [*bounds, len(texts)]):
        chunks.extend(_break_free_chunks(texts[start:end]))
    return chunks


def _break_free_chunks(texts: Sequence[str]) -> list[TextChunk]:
    """``texts`` as one chunk, or, when some hold ``"\x1e"``, as runs:
    each such text alone, and the texts between two of them together."""
    try:
        return [TextChunk(texts)]
    except ValueError:
        pass
    chunks: list[TextChunk] = []
    run: list[str] = []
    for text in texts:
        if _BREAK in text:
            if run:
                chunks.append(TextChunk(run))
                run = []
            chunks.append(TextChunk([text]))
        else:
            run.append(text)
    if run:
        chunks.append(TextChunk(run))
    return chunks


def clean_text(text: str) -> str:
    """Normalise raw comment text for feature extraction.

    Strips URLs, @-mentions, and HTML entities, lower-cases, and collapses
    whitespace.  The transformation is deliberately conservative: it never
    invents tokens, only removes noise.
    """
    chunk = TextChunk([text])
    return " ".join(_clean(text, chunk.raw, chunk.lowered).lower().split())


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of the cleaned text.

    Returns:
        List of tokens matching ``[a-z0-9']+`` with bare apostrophes
        stripped.
    """
    return TextChunk([text]).tokens()


def sentence_count(text: str) -> int:
    """Rough sentence count (used as a Perspective-model feature)."""
    parts = [p for p in _SENTENCE_RE.split(text) if p.strip()]
    return max(1, len(parts))


def caps_ratio(text: str) -> float:
    """Fraction of ASCII letters that are upper-case.

    SHOUTED comments are a strong informal toxicity signal; the simulated
    Perspective models use this as one input feature.
    """
    return float(TextChunk([text]).caps_ratios()[0])
