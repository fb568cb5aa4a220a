"""The ported §4.5 fit has scipy's bits.

``repro.stats.powerlaw`` computes the Hurwitz zeta and the bounded Brent
minimisation itself; ``tests/oracles/powerlaw.py`` keeps the scipy-backed
``_mle_alpha``, ``_ks_distance``, ``pmf`` and ``cdf`` it replaced.  The
oracle fit is the production xmin scan with the oracle's two internals
patched in.  Fits are compared by the ``repr`` of their fields, which
shows every bit of a float, and the fitted ``pmf``/``cdf`` by their bytes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from repro.stats import powerlaw
from tests.oracles import powerlaw as oracle

ALPHAS = st.floats(min_value=1.01, max_value=6.0)
INTEGER_Q = st.integers(min_value=1, max_value=10**12).map(float)
REAL_Q = st.floats(min_value=1e-3, max_value=1e12)


@settings(max_examples=2000)
@given(ALPHAS, st.one_of(INTEGER_Q, REAL_Q, st.floats(min_value=1e8, max_value=1e15)))
def test_hurwitz_zeta_matches_scipy(x, q):
    assert powerlaw.hurwitz_zeta(x, q).hex() == float(zeta(x, q)).hex()


def test_hurwitz_zeta_edge_cases_match_scipy():
    cases = [(1.0, 2.0), (0.5, 2.0), (2.0, 0.0), (2.0, -3.0), (2.0, -1.5),
             (2.5, -1.5), (3.0, 1e8), (3.0, np.nextafter(1e8, 2e8)), (1.01, 1)]
    for x, q in cases:
        assert repr(powerlaw.hurwitz_zeta(x, q)) == repr(float(zeta(x, q))), (x, q)


def _oracle_fit(data, xmin=None):
    """The production xmin scan over the scipy-backed internals."""
    patched = pytest.MonkeyPatch()
    patched.setattr(powerlaw, "_mle_alpha", oracle._mle_alpha)
    patched.setattr(powerlaw, "_ks_distance", oracle._ks_distance)
    try:
        return powerlaw.fit_discrete_powerlaw(data, xmin=xmin)
    finally:
        patched.undo()


def _pareto_degrees(seed: int) -> list[int]:
    """A rounded Pareto sample with a seeded exponent, cut-off and size."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(1.8, 4.5)
    xmin = int(rng.integers(1, 6))
    n = int(rng.integers(10, 2000))
    u = rng.random(n)
    values = np.floor((xmin - 0.5) * (1 - u) ** (-1 / (alpha - 1)) + 0.5)
    return values.clip(max=100_000).astype(int).tolist()


def _assert_same_fit(fit, expected):
    assert repr(dataclasses.astuple(fit)) == repr(dataclasses.astuple(expected))
    support = np.arange(fit.xmin, fit.xmin + 200)
    assert fit.pmf(support).tobytes() == oracle.pmf(expected, support).tobytes()
    for x in (fit.xmin - 1, fit.xmin, fit.xmin + 7, fit.xmin + 500):
        assert fit.cdf(x).hex() == oracle.cdf(expected, x).hex()


@pytest.mark.parametrize("block", range(4))
def test_seeded_fits_are_bit_identical(block):
    for seed in range(block * 60, (block + 1) * 60):
        data = _pareto_degrees(seed)
        _assert_same_fit(powerlaw.fit_discrete_powerlaw(data), _oracle_fit(data))


def test_fixed_xmin_and_error_paths_match():
    data = _pareto_degrees(1000)
    for xmin in (1, 2, 3, 5):
        _assert_same_fit(
            powerlaw.fit_discrete_powerlaw(data, xmin=xmin), _oracle_fit(data, xmin)
        )
    for degrees, xmin in (([1, 2, 3, 0, 0], None), (data, max(data) + 1)):
        with pytest.raises(ValueError) as ours:
            powerlaw.fit_discrete_powerlaw(degrees, xmin=xmin)
        with pytest.raises(ValueError) as theirs:
            _oracle_fit(degrees, xmin)
        assert str(ours.value) == str(theirs.value)
