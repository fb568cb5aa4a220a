"""Tests for the character-n-gram language identifier."""

import numpy as np
import pytest

from repro.nlp import langid
from repro.nlp.langid import (
    LanguageIdentifier,
    SEED_CORPORA,
    default_language_identifier,
)
from repro.platform.entities import CommentLatent
from repro.platform.textgen import CommentTextGenerator
from tests.oracles.langid import DictLanguageIdentifier

SENTENCES = {
    "en": "this is clearly an english sentence about the weekly news",
    "de": "das ist eindeutig ein deutscher satz über die nachrichten der woche",
    "fr": "ceci est clairement une phrase française sur les nouvelles de la semaine",
    "es": "esta es claramente una frase española sobre las noticias de la semana",
    "it": "questa è chiaramente una frase italiana sulle notizie della settimana",
}


@pytest.fixture(scope="module")
def identifier():
    return default_language_identifier()


class TestClassification:
    @pytest.mark.parametrize("lang", sorted(SENTENCES))
    def test_classifies_each_language(self, identifier, lang):
        assert identifier.classify(SENTENCES[lang]) == lang

    def test_empty_text_defaults_to_english(self, identifier):
        assert identifier.classify("") == "en"
        assert identifier.classify("   ") == "en"

    def test_scores_cover_all_languages(self, identifier):
        scores = identifier.scores("hello world")
        assert set(scores) == set(SEED_CORPORA)

    def test_classify_many(self, identifier):
        texts = [SENTENCES["en"], SENTENCES["de"]]
        assert identifier.classify_many(texts) == ["en", "de"]

    def test_short_toxic_english_stays_english(self, identifier):
        # Slang/pseudo-word-laden comments must not drift to other
        # languages (the domain-vocabulary training requirement).
        assert identifier.classify("you pathetic sheeple idiots") == "en"


class TestTraining:
    def test_untrained_identifier_rejected(self):
        # Blank text used to reach ``_languages[0]`` and raise IndexError.
        untrained = LanguageIdentifier()
        calls = [
            lambda: untrained.scores("text"),
            lambda: untrained.scores(""),
            lambda: untrained.classify("abc"),
            lambda: untrained.classify(""),
            lambda: untrained.classify("   "),
            lambda: untrained.scores_many([]),
            lambda: untrained.classify_many([]),
            lambda: untrained.classify_many(["", "abc"]),
        ]
        for call in calls:
            with pytest.raises(RuntimeError, match="must be trained before use"):
                call()

    def test_empty_corpora_rejected(self):
        with pytest.raises(ValueError):
            LanguageIdentifier().fit({})

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LanguageIdentifier(order=0)
        with pytest.raises(ValueError):
            LanguageIdentifier(smoothing=0)

    def test_two_language_custom_training(self):
        li = LanguageIdentifier(order=2).fit(
            {"aa": "aaaa aaaa aaaa", "bb": "bbbb bbbb bbbb"}
        )
        assert li.classify("aaa") == "aa"
        assert li.classify("bbb") == "bb"


def _generated_comments() -> list[str]:
    gen = CommentTextGenerator(np.random.default_rng(11), mean_tokens=15)
    latent = CommentLatent(toxicity=0.4, obscene=0.2, attack=0.1, reject=0.5)
    return [
        gen.generate(latent, language=lang)
        for lang in sorted(SEED_CORPORA)
        for _ in range(40)
    ]


#: Texts that stress the batch encoding: a literal padding character,
#: astral code points and a lone surrogate, a character whose lowercase
#: is longer than itself, characters never seen in training, and a text
#: of over 100k characters.
HOSTILE_TEXTS = [
    "a\x00b\x00\x00c \x00",
    "\x00",
    "hello 😀 wörld 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 \U0010ffff 🇩🇪",
    "x\ud83d y",
    "İ",
    "İstanbul İİ über",
    "☃☃ 日本語 ✓",
    ("der the " + " ".join(SEED_CORPORA.values()) + " 😀İ\x00") * 40,
]


def _hex_rows(rows) -> list[list[str]]:
    return [[float(value).hex() for value in row] for row in rows]


def _oracle_label(scored: dict[str, float]) -> str:
    """``classify``'s rule: highest score, ties to the first language."""
    return min(scored, key=lambda lang: (-scored[lang], lang))


class TestSequentialSumOracle:
    """``scores_many`` sums gram log-probs left to right, bit for bit."""

    # The last text spans several gathered blocks of log-prob rows.
    EDGE_TEXTS = ["", " ", "   \t ", "a", "Ü", "!", " ".join(SEED_CORPORA.values()) * 4]

    @pytest.fixture(scope="class")
    def texts(self):
        return self.EDGE_TEXTS + _generated_comments() + HOSTILE_TEXTS

    @pytest.fixture(scope="class", params=[1, 2, 3, 4])
    def pair(self, request, texts):
        """(identifier, oracle scores of ``texts``) for one n-gram order."""
        order = request.param
        identifier = LanguageIdentifier(order=order).fit(SEED_CORPORA)
        oracle = DictLanguageIdentifier(order=order).fit(SEED_CORPORA)
        return identifier, [oracle.scores(text) for text in texts]

    def test_scores_match_dict_oracle(self, pair, texts):
        identifier, want = pair
        assert identifier.languages == list(want[0])
        got = identifier.scores_many(texts)
        assert got.shape == (len(texts), len(identifier.languages))
        assert _hex_rows(got) == _hex_rows(row.values() for row in want)

    def test_scores_is_the_batch_of_one(self, pair, texts):
        identifier, want = pair
        for text, expected in zip(texts, want):
            got = identifier.scores(text)
            assert list(got) == list(expected)
            assert _hex_rows([got.values()]) == _hex_rows([expected.values()])

    @pytest.mark.parametrize("batch", [1, 7, None], ids=["1", "7", "all"])
    def test_shuffled_batches_match_dict_oracle(self, pair, texts, batch):
        identifier, want = pair
        order = np.random.default_rng(3).permutation(len(texts))
        shuffled = [texts[i] for i in order]
        size = batch or len(texts)
        got = np.concatenate(
            [
                identifier.scores_many(shuffled[start : start + size])
                for start in range(0, len(shuffled), size)
            ]
        )
        assert _hex_rows(got) == _hex_rows(want[i].values() for i in order)

    @pytest.mark.parametrize(
        "chunk_chars, carry_steps, gather_rows",
        [(1, 4, 4096), (50, 0, 3), (1000, 10**9, 4096), (1 << 16, 1, 7)],
        ids=["one-text-chunks", "carry-all", "share-all", "carry-small-blocks"],
    )
    def test_chunking_and_carry_keep_the_bits(
        self, pair, texts, monkeypatch, chunk_chars, carry_steps, gather_rows
    ):
        identifier, want = pair
        monkeypatch.setattr(langid, "_CHUNK_CHARS", chunk_chars)
        monkeypatch.setattr(langid, "_CARRY_STEPS", carry_steps)
        monkeypatch.setattr(langid, "_GATHER_ROWS", gather_rows)
        got = identifier.scores_many(texts)
        assert _hex_rows(got) == _hex_rows(row.values() for row in want)

    def test_classify_many_matches_classify_and_oracle_rule(self, pair, texts):
        identifier, want = pair
        labels = identifier.classify_many(texts)
        assert labels == [identifier.classify(text) for text in texts]
        assert labels == [
            "en" if not text.strip() else _oracle_label(scored)
            for text, scored in zip(texts, want)
        ]

    def test_ties_break_alphabetically_and_blank_is_english(self):
        # Identical corpora tie every text; "en" sorts after "de".
        identifier = LanguageIdentifier().fit({"en": "abc abd", "de": "abc abd"})
        assert identifier.classify_many(["abc", "zzz", "", " \t"]) == [
            "de", "de", "en", "en",
        ]

    def test_blank_without_english_is_first_language(self):
        identifier = LanguageIdentifier(order=2).fit({"xx": "abc", "ww": "cba"})
        assert identifier.classify_many(["", "  "]) == ["ww", "ww"]
        assert identifier.classify_many([]) == []
        assert identifier.scores_many([]).shape == (0, 2)


class TestCorpusLevelAccuracy:
    def test_accuracy_on_generated_comments(self, identifier, medium_world):
        comments = medium_world.dissenter.comments[:2500]
        labels = identifier.classify_many([c.text for c in comments])
        correct = sum(
            1 for c, label in zip(comments, labels) if label == c.language
        )
        assert correct / len(comments) > 0.9

    def test_foreign_comments_perfectly_recognised(self, identifier, medium_world):
        foreign = [
            c for c in medium_world.dissenter.comments if c.language != "en"
        ][:150]
        assert foreign, "world should contain non-English comments"
        labels = identifier.classify_many([c.text for c in foreign])
        correct = sum(
            1 for c, label in zip(foreign, labels) if label == c.language
        )
        assert correct / len(foreign) > 0.95
