"""The draw kernel reproduces numpy's ``Generator`` draw for draw.

Each ``Draws`` method and ``WeightedPicker`` must return what the numpy
call it replaces returns *and* leave the bit generator in the same state,
including PCG64's buffered ``uint32`` half (``has_uint32``/``uinteger``),
when scalar, vector, uniform and weighted draws interleave on one stream —
the world generators interleave them freely.  Every expectation comes
from live numpy, so a numpy release that changes ``integers`` or
``choice`` fails here rather than in a world digest.
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.platform.draws import Draws, WeightedPicker, checked_cdf
from repro.platform.entities import CommentLatent
from repro.platform.textgen import EMISSION, class_probs

SEEDS = range(200)
WORDS = ("the", "a", "is", "and", "of", "dissent", "gab", "comment", "url")


def _zipf(n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    probs = 1.0 / (ranks + 4.0)
    probs /= probs.sum()
    return probs


def _class_mix(rng: np.random.Generator) -> np.ndarray:
    # The shape of the text generator's per-comment word-class mix,
    # including zero-weight classes.
    rates = rng.random(5) * (rng.random(5) < 0.7)
    rates[4] = max(rates[4], 0.05)
    return rates / rates.sum()


def _assert_same_state(ours: np.random.Generator, ref: np.random.Generator, where) -> None:
    state, expected = ours.bit_generator.state, ref.bit_generator.state
    assert state["has_uint32"] == expected["has_uint32"], where
    assert state["uinteger"] == expected["uinteger"], where
    assert state == expected, where


def test_interleaved_draws_match_choice():
    buffered = 0
    for seed in SEEDS:
        buffered += _check_interleaved(seed)
    # The uint32 half was left buffered across other draws many times.
    assert buffered > 1000


def _check_interleaved(seed: int) -> int:
    ours = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    draws = Draws(ours)
    params = np.random.default_rng(10_000 + seed)
    words_arr = np.asarray(WORDS)
    zipf = _zipf(len(WORDS))
    picker = WeightedPicker(WORDS, zipf)
    buffered = 0

    for step in range(40):
        kind = int(params.integers(0, 8))
        if kind == 0:
            assert draws.pick(WORDS) == str(ref.choice(words_arr))
        elif kind == 1:
            n = int(params.integers(0, 12))
            expected = [str(w) for w in ref.choice(words_arr, size=n)]
            assert draws.pick_many(WORDS, n) == expected
        elif kind == 2:
            assert picker.pick(draws) == str(ref.choice(words_arr, p=zipf))
        elif kind == 3:
            # generate's class draws: one random(n), bisected on the cdf.
            probs = _class_mix(params)
            n = int(params.integers(0, 30))
            expected = ref.choice(len(probs), size=n, p=probs).tolist()
            cdf = checked_cdf(probs.tolist())
            assert [bisect_right(cdf, u) for u in ours.random(n).tolist()] == expected
        elif kind == 4:
            low = int(params.integers(-50, 50))
            high = low + int(params.integers(1, 10_000))
            assert draws.integers(low, high) == int(ref.integers(low, high))
        elif kind == 5:
            assert draws.random() == ref.random()
        elif kind == 6:
            # An odd number of uint32 draws, then numpy's own draws.
            for _ in range(int(params.integers(0, 3)) * 2 + 1):
                assert draws.integers(0, 7) == int(ref.integers(0, 7))
            k = int(params.integers(1, 5))
            assert ours.random() == ref.random()
            assert ours.random(k).tolist() == ref.random(k).tolist()
            got = ours.integers(3, 90, size=k).tolist()
            assert got == ref.integers(3, 90, size=k).tolist()
            assert ours.beta(2.0, 5.0) == ref.beta(2.0, 5.0)
            assert ours.poisson(16.0) == ref.poisson(16.0)
        else:
            # Wide ranges: 64-bit path, raw next_uint32, Lemire.
            high = int(params.choice([2**32 + 1, 2**32, 2**32 - 1, 10**18]))
            assert draws.integers(0, high) == int(ref.integers(0, high))
        _assert_same_state(ours, ref, (seed, step))
        buffered += ours.bit_generator.state["has_uint32"]
    return buffered


@pytest.mark.parametrize("n", [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40])
def test_integers_at_the_32_bit_edges(n):
    # n == 1 draws nothing; n <= 2**32 is Lemire on next_uint32 (n == 2**32
    # is the raw word); n > 2**32 is numpy's own 64-bit path.
    for seed in range(50):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        draws = Draws(ours)
        before = ours.bit_generator.state
        for step in range(5):
            assert draws.integers(0, n) == int(ref.integers(0, n))
            assert draws.integers(7, 7 + n) == int(ref.integers(7, 7 + n))
            _assert_same_state(ours, ref, (seed, n, step))
        if n == 1:
            assert ours.bit_generator.state == before
        assert draws.pick(range(n)) == int(ref.choice(n))
        _assert_same_state(ours, ref, (seed, n))


def test_lemire_rejections_match_numpy():
    # A range just past 2**31 rejects about half of all words, so the
    # redraw loop runs on most draws.
    n = 2**31 + 1
    for seed in range(20):
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        draws = Draws(ours)
        assert draws.pick_many(range(n), 64) == ref.choice(n, size=64).tolist()
        _assert_same_state(ours, ref, seed)


def test_empty_ranges_raise_like_numpy():
    draws = Draws(np.random.default_rng(0))
    for low, high in ((0, 0), (5, 3)):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(low, high)
        with pytest.raises(ValueError):
            draws.integers(low, high)
    with pytest.raises(ValueError):
        draws.pick(())
    assert draws.pick_many((), 0) == []


def test_pick_many_indexes_numbers_and_strings():
    ours = np.random.default_rng(3)
    ref = np.random.default_rng(3)
    draws = Draws(ours)
    ids = [101, 205, 307, 409]
    assert draws.pick_many(ids, 9) == ref.choice(np.asarray(ids), size=9).tolist()
    alphabet = "abcdef"
    expected = "".join(str(c) for c in ref.choice(np.asarray(list(alphabet)), size=11))
    assert "".join(draws.pick_many(alphabet, 11)) == expected
    assert draws.pick_many(("only",), 4) == ["only"] * 4
    _assert_same_state(ours, ref, "pick_many")


def test_weighted_picker_handles_zero_weight_edges():
    probs = np.asarray([0.0, 0.5, 0.0, 0.5, 0.0])
    items = ("z0", "a", "z2", "b", "z4")
    picker = WeightedPicker(items, probs)
    for seed in SEEDS:
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        draws = Draws(ours)
        got = [picker.pick(draws) for _ in range(20)]
        assert got == [str(ref.choice(np.asarray(items), p=probs)) for _ in range(20)]
        _assert_same_state(ours, ref, seed)


@pytest.mark.parametrize("n", [5, 300, 5000])
def test_cdf_has_numpys_bits(n):
    # choice's cdf is p.cumsum() / cdf[-1]; the Python running sum adds
    # in the same order.
    params = np.random.default_rng(n)
    for _ in range(20):
        probs = params.random(n) ** 3
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert [c.hex() for c in checked_cdf(probs.tolist())] == [
            c.hex() for c in cdf.tolist()
        ]


@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
def test_ties_on_the_cdf_go_right_like_searchsorted(u):
    # A uniform draw equal to a cdf step lands past it, as numpy's
    # searchsorted(side="right") puts it; zero-weight items are skipped.
    probs = np.asarray([0.0, 0.25, 0.25, 0.0, 0.5])
    cdf = probs.cumsum() / probs.cumsum()[-1]
    expected = int(cdf.searchsorted(u, side="right"))
    assert bisect_right(checked_cdf(probs.tolist()), u) == expected


def test_class_probs_have_the_numpy_expressions_bits():
    # generate's word-class mix and cdf, built with Python floats, against
    # the float64 array expression they replace.
    params = np.random.default_rng(17)
    latents = [CommentLatent(*row) for row in params.random((4000, 4)).tolist()]
    latents += [
        CommentLatent(0.0, 0.0, 0.0, 0.0),
        CommentLatent(1.0, 1.0, 1.0, 1.0),
        CommentLatent(EMISSION.HATE_THRESHOLD, 0.3, 0.5, 0.9),
    ]
    for latent in latents:
        rates = np.asarray([
            EMISSION.offensive_rate(latent),
            EMISSION.obscene_rate(latent),
            EMISSION.hate_rate(latent),
            EMISSION.rude_rate(latent),
        ])
        benign_rate = max(0.05, 1.0 - rates.sum())
        probs = np.concatenate([rates, [benign_rate]])
        probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        p = class_probs(latent)
        assert [v.hex() for v in p] == [v.hex() for v in probs.tolist()], latent
        assert [c.hex() for c in checked_cdf(p)] == [c.hex() for c in cdf.tolist()]


@pytest.mark.parametrize(
    "probs",
    [
        [0.6, -0.1, 0.5],
        [0.5, float("nan"), 0.5],
        [0.5, 0.5],
        [0.3, 0.3, 0.3],
        [float("inf"), 0.0, 0.0],
        [[0.5, 0.5, 0.0]],
    ],
    ids=["negative", "nan", "wrong-length", "not-normalised", "inf", "2-d"],
)
def test_bad_probabilities_rejected_like_choice(probs):
    items = ("a", "b", "c")
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(np.asarray(items), p=probs)
    with pytest.raises(ValueError):
        WeightedPicker(items, probs)
    if np.ndim(probs) == 1 and len(probs) == 3:
        with pytest.raises(ValueError):
            checked_cdf(probs)


def test_normalisation_tolerance_matches_choice():
    # choice accepts sum(p) within sqrt(eps) of 1 and rejects beyond it.
    eps = np.sqrt(np.finfo(np.float64).eps)
    near = np.asarray([0.5, 0.5 + 0.5 * eps])
    far = np.asarray([0.5, 0.5 + 4.0 * eps])
    np.random.default_rng(0).choice(2, p=near)
    WeightedPicker(("a", "b"), near)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=far)
    with pytest.raises(ValueError):
        WeightedPicker(("a", "b"), far)
