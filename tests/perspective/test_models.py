"""Tests for the simulated Perspective API."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perspective import ATTRIBUTES, score_comment
from repro.perspective.lexicon import extract_features
from repro.platform.entities import CommentLatent
from repro.platform.textgen import CommentTextGenerator


class TestScoreComment:
    def test_all_attributes_scored(self):
        scores = score_comment("some ordinary comment about the news")
        assert set(scores) == set(ATTRIBUTES)
        assert all(0.0 <= v <= 1.0 for v in scores.values())

    def test_deterministic(self):
        text = "you pathetic clowns are all brainwashed sheeple"
        assert score_comment(text) == score_comment(text)

    def test_toxic_text_scores_higher(self):
        benign = "the article about the economy was interesting and important"
        toxic = (
            "you DISGUSTING worthless SCUM are pathetic braindead morons "
            "and degenerate trash idiots"
        )
        assert (
            score_comment(toxic)["SEVERE_TOXICITY"]
            > score_comment(benign)["SEVERE_TOXICITY"] + 0.2
        )

    def test_attack_phrase_detected(self):
        attacked = "the author is a pathetic fraud. nonsense as usual"
        plain = "nonsense as usual from this website"
        assert (
            score_comment(attacked)["ATTACK_ON_AUTHOR"]
            > score_comment(plain)["ATTACK_ON_AUTHOR"] + 0.25
        )

    def test_empty_text_scores_low(self):
        scores = score_comment("")
        assert scores["SEVERE_TOXICITY"] < 0.2

    def test_unknown_attribute_rejected(self):
        with pytest.raises(KeyError):
            score_comment("text", attributes=("NOT_A_MODEL",))

    @given(st.text(max_size=200))
    def test_scores_always_bounded(self, text):
        for value in score_comment(text).values():
            assert 0.0 <= value <= 1.0


class TestLatentRecovery:
    """The models must track the generator's hidden latents."""

    @pytest.fixture(scope="class")
    def generated(self):
        rng = np.random.default_rng(0)
        gen = CommentTextGenerator(rng, mean_tokens=20)
        pairs = []
        for _ in range(400):
            toxicity = float(rng.random())
            obscene = float(rng.random())
            # Respect the platform's causal invariant: a toxic or obscene
            # comment is at least as rejectable as its toxicity implies.
            reject = max(
                float(rng.random()), 0.9 * toxicity + 0.05, 0.7 * obscene
            )
            latent = CommentLatent(
                toxicity=toxicity,
                obscene=obscene,
                attack=float(rng.random()),
                reject=min(1.0, reject),
            )
            pairs.append((latent, gen.generate(latent)))
        return pairs

    def test_toxicity_correlation(self, generated):
        latents = np.asarray([p[0].toxicity for p in generated])
        scores = np.asarray(
            [score_comment(p[1])["SEVERE_TOXICITY"] for p in generated]
        )
        assert np.corrcoef(latents, scores)[0, 1] > 0.6

    def test_reject_correlation(self, generated):
        latents = np.asarray([p[0].reject for p in generated])
        scores = np.asarray(
            [score_comment(p[1])["LIKELY_TO_REJECT"] for p in generated]
        )
        assert np.corrcoef(latents, scores)[0, 1] > 0.6

    def test_obscene_correlation(self, generated):
        latents = np.asarray([p[0].obscene for p in generated])
        scores = np.asarray(
            [score_comment(p[1])["OBSCENE"] for p in generated]
        )
        assert np.corrcoef(latents, scores)[0, 1] > 0.6


class TestFeatureExtraction:
    def test_rates_counted(self):
        f = extract_features("idiot idiot the the the the the the the the")
        assert f.n_tokens == 10
        assert f.offensive_rate == pytest.approx(0.2)
        assert f.union_rate == pytest.approx(0.2)

    def test_bang_run_measured(self):
        assert extract_features("wow!!!!!").bang_run == 5
        assert extract_features("no bangs here").bang_run == 0

    def test_caps_measured(self):
        f = extract_features("THIS IS SHOUTING")
        assert f.caps == 1.0

    def test_attack_phrase_flag(self):
        f = extract_features("honestly the author is a total fraud")
        assert f.has_attack_phrase
