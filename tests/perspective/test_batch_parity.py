"""Batch Perspective scoring is bit-identical to the per-text oracle.

Production featurizes a chunk of texts at once (a token class table,
numpy columns, array estimators); ``tests/oracles/perspective.py`` keeps
the per-text, per-token-occurrence path it replaced.  Scores are
compared by ``float.hex``, so a difference in the last bit fails.

Texts are scored next to each other in one chunk, so the chunk cases
put what one text ends with (half a URL, a bare ``@``, an unterminated
entity, an apostrophe, a cased letter before a final sigma) next to what
the following text begins with, and put whitespace and control
characters, case folds and lone surrogates inside texts.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import ScoreStore
from repro.nlp.lexicons import (
    ATTACK_PHRASES,
    BENIGN_VOCAB,
    OBSCENE_VOCAB,
    OFFENSIVE_VOCAB,
    RUDE_VOCAB,
    hate_vocab,
)
from repro.nlp.tokenize import caps_ratio, clean_text, text_chunks, tokenize
from repro.perspective.lexicon import (
    TABLE_ENTRIES,
    _stemmed_sets,
    extract_features,
    extract_features_many,
)
from repro.perspective.models import ATTRIBUTES, PerspectiveModels, score_comment
from repro.platform.entities import CommentLatent
from repro.platform.textgen import CommentTextGenerator
from tests.oracles import perspective as oracle

VOCAB = (
    list(BENIGN_VOCAB[:40])
    + list(OFFENSIVE_VOCAB)
    + list(OBSCENE_VOCAB)
    + list(RUDE_VOCAB)
    + hate_vocab()[:60]
)

# "idioting"/"moroned" stem into the offensive class while their surface
# forms are in no class; "degener", "ars", "nonsens" and "kleple" are in
# a class only by their surface forms (their stems are not).
EDGE_TEXTS = [
    "",
    " ",
    "idiot",
    "a",
    "ab",
    "a b c de",
    "'",
    "''' '' 'x'",
    "it's the author's fault",
    "!",
    "!!",
    "!!!",
    "wow!!!!!!!!!!!! !!",
    "idioting",
    "moroned idioting the",
    "degener ars nonsens kleple",
    "IDIOT MORON!!!",
    "the the the the",
    "ÜBER naïve café ß ﬁ",
]


def _hex(scores: dict[str, float]) -> dict[str, str]:
    return {name: value.hex() for name, value in scores.items()}


def _hex_features(features) -> dict[str, object]:
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(features).items()
    }


def _assert_oracle_identical(texts, models=None):
    models = models or PerspectiveModels()
    rows = models.score_many(texts)
    assert [_hex(row) for row in rows] == [
        _hex(oracle.score_comment(text)) for text in texts
    ]


def _mixed_case(phrase: str, seed: int) -> str:
    rng = random.Random(seed)
    return "".join(ch.upper() if rng.random() < 0.5 else ch for ch in phrase)


def _attack_texts() -> list[str]:
    texts = []
    for i, phrase in enumerate(ATTACK_PHRASES):
        texts.append(phrase.upper())
        texts.append(phrase.title() + " total fraud!!!")
        texts.append("honestly " + _mixed_case(phrase, i) + " idiot")
        # Broken up by an extra space: no longer the phrase.
        texts.append(phrase.replace(" ", "  ", 1))
    return texts


def _generated_texts() -> list[str]:
    rng = np.random.default_rng(13)
    gen = CommentTextGenerator(rng, mean_tokens=18)
    grid = (0.0, 0.3, 0.6, 0.85, 1.0)
    texts = []
    for toxicity, obscene, attack, reject in itertools.product(grid, repeat=4):
        latent = CommentLatent(
            toxicity=toxicity, obscene=obscene, attack=attack, reject=reject
        )
        texts.append(gen.generate(latent))
    return texts


GENERATED = _generated_texts()
ALL_TEXTS = EDGE_TEXTS + _attack_texts() + GENERATED

_piece = st.one_of(
    st.sampled_from(VOCAB),
    st.sampled_from(VOCAB).map(str.upper),
    st.sampled_from(["!", "!!!", "!!!!!!!", "'", "''", "'s", "?!", "."]),
    st.sampled_from(ATTACK_PHRASES).map(str.upper),
    st.text(max_size=6),
)
_text = st.one_of(
    st.text(max_size=40),
    st.lists(_piece, max_size=14).map(" ".join),
    st.lists(_piece, max_size=14).map("".join),
)


class TestScoresMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_text, max_size=8))
    def test_hypothesis_texts(self, texts):
        _assert_oracle_identical(texts)

    def test_attack_phrases_in_mixed_case(self):
        texts = _attack_texts()
        _assert_oracle_identical(texts)
        flags = extract_features_many(texts, {}).has_attack_phrase
        assert flags.tolist() == [True, True, True, False] * len(ATTACK_PHRASES)

    def test_generated_comments_across_latent_grid(self):
        _assert_oracle_identical(GENERATED)

    def test_edge_cases(self):
        _assert_oracle_identical(EDGE_TEXTS)
        features = extract_features("moroned idioting the")
        assert features.offensive_rate == 2 / 3
        assert "idioting" not in _stemmed_sets()["offensive"]
        surface_only = extract_features("degener ars nonsens kleple")
        assert surface_only.union_rate == 1.0
        # A lone surrogate is not a letter and does not break the count.
        assert caps_ratio("A\ud800b") == oracle.caps_ratio("A\ud800b") == 0.5

    def test_score_comment_is_a_one_row_batch(self):
        for text in EDGE_TEXTS + GENERATED[:50]:
            assert _hex(score_comment(text)) == _hex(oracle.score_comment(text))
        subset = ("OBSCENE", "ATTACK_ON_AUTHOR")
        assert _hex(score_comment("you idiot", subset)) == _hex(
            oracle.score_comment("you idiot", subset)
        )
        assert score_comment("you idiot", ()) == {}
        with pytest.raises(KeyError):
            score_comment("text", attributes=("NOT_A_MODEL",))


# What a text can end with, and what its neighbour can begin with, that
# a pattern or ``lower()`` context would join if nothing separated them.
ENDINGS = [
    "see http://",
    "see https://",
    "HTTP://",
    "httpſ://",
    "go to www.",
    "WWW.",
    "wWw.",
    "ping @",
    "a &amp",
    "a &#3",
    "a &",
    "it'",
    "ΑΣ",
    "ΟΔΟΣ",
    "İ",
    "\u212a",
    "the author",
    "wow!!",
    "SHOUTING",
    "",
    "\ud800",
]
BEGINNINGS = [
    "example.com/page idiot",
    "someone what gives",
    ";",
    "9; b moron",
    "'s fault",
    "'",
    "Σ",
    "B",
    "is a clown",
    "!!!",
    "ill them",
    "",
    "\udc00 lone",
]
# Whitespace, control and separator characters that may sit inside texts.
HAZARDS = ["\x00", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000"]
HAZARD_TEXTS = [
    template.format(c)
    for c in HAZARDS
    for template in (
        "{}",
        "http://a{}b idiot",
        "www.a{}b moron",
        "@x{}y scum",
        "&amp{}; trash",
        "&#39{}; trash",
        "it'{}'s",
        "the author{}is a clown",
        "The Author Is A{} fraud",
        "wow!{}!!",
        "ΑΣ{}B",
        "{0}idiot{0}",
    )
]
FOLD_TEXTS = [
    "httpſ://x.com idiot",
    "HtTpS://X.COM/a moron",
    "wWw.Example.com scum",
    "&\u212a; kill",
    "&İ; &ı; &ſ; trash",
    "\u212aILL \u212aill",
    "İDİOT İdiot",
    "ΟΔΟΣ ΑΣ Σ ΣΑ",
    "ΑΣ\u0301 idiot",
    "\ud800\udc00 \udfff idiot",
]
CHUNK_TEXTS = (
    [end + begin for end in ENDINGS for begin in BEGINNINGS]
    + ENDINGS
    + BEGINNINGS
    + HAZARD_TEXTS
    + FOLD_TEXTS
)


class TestChunkNeighbours:
    def test_tokenize_and_clean_text_match_the_oracle(self):
        for text in CHUNK_TEXTS:
            assert tokenize(text) == oracle.tokenize(text), text
            assert clean_text(text) == oracle.clean_text(text), text

    def test_every_neighbour_pair_scores_like_the_oracle(self):
        models = PerspectiveModels()
        for end in ENDINGS:
            for begin in BEGINNINGS:
                _assert_oracle_identical([end, begin], models)

    def test_a_batch_of_many_chunks_scores_like_the_oracle(self):
        texts = [
            f"{i} {text}"
            for i, text in enumerate(GENERATED * 3 + HAZARD_TEXTS)
        ]
        assert len(text_chunks(texts)) > 3
        _assert_oracle_identical(texts)

    def test_whole_chunk_scores_like_the_oracle(self):
        _assert_oracle_identical(ENDINGS + BEGINNINGS)
        _assert_oracle_identical(BEGINNINGS + ENDINGS)
        _assert_oracle_identical(HAZARD_TEXTS)
        _assert_oracle_identical(FOLD_TEXTS)
        _assert_oracle_identical(CHUNK_TEXTS)

    def test_chunk_features_match_the_oracle(self):
        batch = extract_features_many(CHUNK_TEXTS, {})
        for i, text in enumerate(CHUNK_TEXTS):
            assert _hex_features(batch.row(i)) == _hex_features(
                oracle.extract_features(text)
            ), text

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(ENDINGS + BEGINNINGS + HAZARDS + FOLD_TEXTS)
                | _piece,
                max_size=4,
            ).map("".join),
            max_size=8,
        )
    )
    def test_hypothesis_hazard_chunks(self, texts):
        _assert_oracle_identical(texts)
        for text in texts:
            assert tokenize(text) == oracle.tokenize(text)


class TestNoCrossTextState:
    def test_shuffled_order_gives_identical_scores(self):
        texts = ALL_TEXTS * 2
        expected = dict(zip(texts, PerspectiveModels().score_many(texts)))
        shuffled = list(texts)
        random.Random(5).shuffle(shuffled)
        rows = PerspectiveModels().score_many(shuffled)
        assert [_hex(row) for row in rows] == [
            _hex(expected[text]) for text in shuffled
        ]

    def test_prime_chunk_size_does_not_change_scores_or_counters(self):
        checked = ALL_TEXTS + CHUNK_TEXTS
        stream = checked + GENERATED[::3] + EDGE_TEXTS + ENDINGS[::-1]
        outcomes = []
        for chunk_size in (1, 2, 7, 4096):
            store = ScoreStore()
            assert store.prime(stream, chunk_size=chunk_size) == len(stream)
            scores = {text: _hex(store.score(text)) for text in checked}
            counters = store.counters.as_dict()
            outcomes.append((scores, counters))
            assert store.models.calls == len(set(stream))
        assert all(outcome == outcomes[0] for outcome in outcomes)
        scores, counters = outcomes[0]
        assert scores == {
            text: _hex(oracle.score_comment(text)) for text in checked
        }
        assert counters["misses"] == len(set(stream))
        assert counters["hits"] == len(stream) - len(set(stream)) + len(checked)


class TestFeatures:
    def test_extract_features_matches_oracle_field_for_field(self):
        for text in ALL_TEXTS:
            assert _hex_features(extract_features(text)) == _hex_features(
                oracle.extract_features(text)
            ), text

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(exclude_categories=()), max_size=40) | _text)
    def test_hypothesis_features_and_caps_ratio(self, text):
        assert _hex_features(extract_features(text)) == _hex_features(
            oracle.extract_features(text)
        )
        assert caps_ratio(text).hex() == oracle.caps_ratio(text).hex()

    def test_batch_rows_match_one_row_features(self):
        batch = extract_features_many(ALL_TEXTS, {})
        assert len(batch.n_tokens) == len(ALL_TEXTS)
        for i, text in enumerate(ALL_TEXTS):
            assert _hex_features(batch.row(i)) == _hex_features(
                oracle.extract_features(text)
            ), text

    def test_table_holds_each_distinct_token_once(self):
        table: dict[str, int] = {}
        extract_features_many(ALL_TEXTS, table)
        tokens = {token for text in ALL_TEXTS for token in tokenize(text)}
        assert set(table) == tokens
        assert table["idiot"] == table["idioting"] == 1
        assert all(0 <= mask < 16 for mask in table.values())


class TestFullTable:
    def test_full_table_still_scores_like_the_oracle(self):
        models = PerspectiveModels()
        filler = " ".join(f"zq{i}" for i in range(TABLE_ENTRIES))
        models.score(filler)
        table = models._token_classes
        assert len(table) == TABLE_ENTRIES
        _assert_oracle_identical(ALL_TEXTS, models)
        assert len(table) == TABLE_ENTRIES
        assert "idioting" not in table
        assert ATTRIBUTES == tuple(models.score("idioting"))
