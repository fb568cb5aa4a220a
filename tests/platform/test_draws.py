"""The draw helpers reproduce ``Generator.choice`` draw for draw.

Each helper must return the same items as the ``rng.choice`` form it
replaces *and* leave the bit generator in the same state, including when
scalar, vector, uniform and weighted draws interleave on one stream —
the world generators interleave them freely.
"""

import numpy as np
import pytest

from repro.platform.draws import WeightedPicker, pick, pick_many, weighted_indices

SEEDS = range(200)
WORDS = ("the", "a", "is", "and", "of", "dissent", "gab", "comment", "url")


def _zipf(n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    probs = 1.0 / (ranks + 4.0)
    probs /= probs.sum()
    return probs


def _class_probs(rng: np.random.Generator) -> np.ndarray:
    # The shape of the text generator's per-comment word-class mix,
    # including zero-weight classes.
    rates = rng.random(5) * (rng.random(5) < 0.7)
    rates[4] = max(rates[4], 0.05)
    return rates / rates.sum()


def test_interleaved_draws_match_choice():
    for seed in SEEDS:
        _check_interleaved(seed)


def _check_interleaved(seed: int) -> None:
    ours = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    params = np.random.default_rng(10_000 + seed)
    words_arr = np.asarray(WORDS)
    zipf = _zipf(len(WORDS))
    picker = WeightedPicker(WORDS, zipf)

    for step in range(40):
        kind = int(params.integers(0, 5))
        if kind == 0:
            assert pick(ours, WORDS) == str(ref.choice(words_arr))
        elif kind == 1:
            n = int(params.integers(0, 12))
            expected = [str(w) for w in ref.choice(words_arr, size=n)]
            assert pick_many(ours, WORDS, n) == expected
        elif kind == 2:
            assert picker.pick(ours) == str(ref.choice(words_arr, p=zipf))
        elif kind == 3:
            probs = _class_probs(params)
            n = int(params.integers(0, 30))
            expected = ref.choice(len(probs), size=n, p=probs)
            got = weighted_indices(ours, probs, n)
            assert got.tolist() == expected.tolist()
        else:
            # Plain draws between choices, as the generators make them.
            assert ours.random() == ref.random()
            assert int(ours.integers(1, 10_000)) == int(ref.integers(1, 10_000))
        assert ours.bit_generator.state == ref.bit_generator.state, (seed, step)


def test_pick_many_indexes_numbers_and_strings():
    ours = np.random.default_rng(3)
    ref = np.random.default_rng(3)
    ids = [101, 205, 307, 409]
    assert pick_many(ours, ids, 9) == ref.choice(np.asarray(ids), size=9).tolist()
    alphabet = "abcdef"
    expected = "".join(str(c) for c in ref.choice(np.asarray(list(alphabet)), size=11))
    assert "".join(pick_many(ours, alphabet, 11)) == expected
    assert ours.bit_generator.state == ref.bit_generator.state


def test_weighted_picker_handles_zero_weight_edges():
    probs = np.asarray([0.0, 0.5, 0.0, 0.5, 0.0])
    items = ("z0", "a", "z2", "b", "z4")
    picker = WeightedPicker(items, probs)
    for seed in SEEDS:
        ours = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        got = [picker.pick(ours) for _ in range(20)]
        assert got == [str(ref.choice(np.asarray(items), p=probs)) for _ in range(20)]
        assert ours.bit_generator.state == ref.bit_generator.state


class _FixedUniform:
    """Stands in for a Generator whose next ``random()`` is chosen."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
def test_ties_on_the_cdf_go_right_like_searchsorted(u):
    # A uniform draw equal to a cdf step lands past it, as numpy's
    # searchsorted(side="right") puts it; zero-weight items are skipped.
    probs = np.asarray([0.0, 0.25, 0.25, 0.0, 0.5])
    cdf = probs.cumsum() / probs.cumsum()[-1]
    expected = int(cdf.searchsorted(u, side="right"))
    assert WeightedPicker(range(5), probs).pick(_FixedUniform(u)) == expected
    got = weighted_indices(_FixedUniform(u), probs, 3)
    assert got.tolist() == [expected] * 3


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
            weighted_indices(np.random.default_rng(0), probs, 4)


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
