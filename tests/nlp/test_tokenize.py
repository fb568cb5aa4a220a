"""Tests for text cleaning, tokenisation, and n-grams."""

import pytest
from hypothesis import given, strategies as st

from repro.nlp.ngrams import char_ngrams, extract_ngrams, ngram_counts
from repro.nlp.tokenize import (
    _LOWER_TO_ASCII,
    TOKEN_BREAK,
    TextChunk,
    caps_ratio,
    clean_text,
    text_chunks,
    tokenize,
)


class TestCleanText:
    def test_strips_urls(self):
        assert "http" not in clean_text("look at https://example.com/page now")
        assert clean_text("see www.example.com please") == "see please"

    def test_strips_mentions(self):
        assert clean_text("hey @someone what gives") == "hey what gives"

    def test_strips_html_entities(self):
        assert clean_text("a &amp; b &#39;c") == "a b c"

    def test_lowercases_and_collapses_whitespace(self):
        assert clean_text("  HELLO   World ") == "hello world"


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Free speech, online!") == ["free", "speech", "online"]

    def test_keeps_numbers_and_contractions(self):
        assert tokenize("it's 2020 folks") == ["it's", "2020", "folks"]

    def test_strips_bare_apostrophes(self):
        assert tokenize("'' quoted '") == ["quoted"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("!!! ... ???") == []

    @given(st.text(max_size=200))
    def test_tokens_match_charset(self, text):
        for token in tokenize(text):
            assert token
            assert all(c.islower() or c.isdigit() or c == "'" for c in token)


class TestTextChunk:
    def test_tokens_are_each_texts_tokens_between_breaks(self):
        texts = ["Free speech!", "", "it's 'quoted'", "a|b", "x"]
        expected = []
        for i, text in enumerate(texts):
            if i:
                expected.append(TOKEN_BREAK)
            expected.extend(tokenize(text))
        assert TextChunk(texts).tokens() == expected
        assert TextChunk([]).tokens() == []
        assert tokenize("a|b \x1e c") == ["a", "b", "c"]

    def test_a_text_holding_the_separator_is_a_chunk_of_one(self):
        texts = ["a", "b", "c\x1ed", "e", "\x1e", "f", "g"]
        chunks = text_chunks(texts)
        assert [list(chunk.texts) for chunk in chunks] == [
            ["a", "b"], ["c\x1ed"], ["e"], ["\x1e"], ["f", "g"]
        ]
        assert [len(text_chunks(["x", "y"]))] == [1]
        with pytest.raises(ValueError):
            TextChunk(["a", "b\x1e"])

    def test_caps_ratios_per_text(self):
        texts = ["SHOUT", "", "Half HALF", "12345 !!!", "A\ud800b", "ÉA b"]
        ratios = TextChunk(texts).caps_ratios()
        assert ratios.tolist() == [caps_ratio(text) for text in texts]
        assert ratios.tolist() == [1.0, 0.0, 5 / 8, 0.0, 0.5, 0.5]

    def test_lower_to_ascii_lists_every_such_character(self):
        # The chunk lower-cases ASCII bytes alone unless one of these is
        # present, so the list must be complete for this interpreter.
        found = tuple(
            chr(code)
            for code in range(128, 0x110000)
            if any(ord(char) < 128 for char in chr(code).lower())
        )
        assert found == _LOWER_TO_ASCII


class TestSurfaceFeatures:
    def test_caps_ratio(self):
        assert caps_ratio("SHOUTING") == 1.0
        assert caps_ratio("quiet words") == 0.0
        assert caps_ratio("Half HALF") == pytest.approx(5 / 8)
        assert caps_ratio("12345 !!!") == 0.0


class TestNgrams:
    def test_unigrams_and_bigrams(self):
        grams = extract_ngrams(["free", "speech", "now"], (1, 2))
        assert grams == ["free", "speech", "now", "free_speech", "speech_now"]

    def test_order_too_large_yields_no_grams(self):
        assert extract_ngrams(["one"], (2,)) == []

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            extract_ngrams(["a"], (0,))

    def test_counts(self):
        counts = ngram_counts(["a", "b", "a", "b"], (1,))
        assert counts["a"] == 2 and counts["b"] == 2

    def test_char_ngrams_padded(self):
        grams = char_ngrams("ab", 3, pad=True)
        assert "\x00\x00a" in grams
        assert "b\x00\x00" in grams

    def test_char_ngrams_unpadded_short_text(self):
        assert char_ngrams("ab", 3, pad=False) == []

    @given(st.text(min_size=0, max_size=50), st.integers(1, 4))
    def test_char_ngram_count(self, text, order):
        grams = char_ngrams(text, order, pad=False)
        assert len(grams) == max(0, len(text) - order + 1)
