"""Tests for the character-n-gram language identifier."""

import numpy as np
import pytest

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
        with pytest.raises(RuntimeError):
            LanguageIdentifier().scores("text")

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


class TestSequentialSumOracle:
    """``scores`` sums gram log-probs left to right, bit for bit."""

    # The last text spans several gathered blocks of log-prob rows.
    EDGE_TEXTS = ["", " ", "   \t ", "a", "Ü", "!", " ".join(SEED_CORPORA.values()) * 4]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_scores_match_dict_oracle(self, order):
        identifier = LanguageIdentifier(order=order).fit(SEED_CORPORA)
        oracle = DictLanguageIdentifier(order=order).fit(SEED_CORPORA)
        for text in self.EDGE_TEXTS + _generated_comments():
            got = identifier.scores(text)
            want = oracle.scores(text)
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [
                v.hex() for v in want.values()
            ], text


class TestCorpusLevelAccuracy:
    def test_accuracy_on_generated_comments(self, identifier, medium_world):
        comments = medium_world.dissenter.comments[:2500]
        correct = sum(
            1
            for c in comments
            if identifier.classify(c.text) == c.language
        )
        assert correct / len(comments) > 0.9

    def test_foreign_comments_perfectly_recognised(self, identifier, medium_world):
        foreign = [
            c for c in medium_world.dissenter.comments if c.language != "en"
        ][:150]
        assert foreign, "world should contain non-English comments"
        correct = sum(
            1 for c in foreign if identifier.classify(c.text) == c.language
        )
        assert correct / len(foreign) > 0.95
