"""The scipy-backed §4.5 power-law internals, the reference for the port.

``repro.stats.powerlaw`` computes the Hurwitz zeta and the bounded
Brent minimisation itself; these are the functions it replaced, calling
``scipy.special.zeta`` and ``scipy.optimize.minimize_scalar``.
:func:`_mle_alpha` and :func:`_ks_distance` take the production
functions' arguments, so a test can patch them into
``repro.stats.powerlaw`` and run the production xmin scan on them;
:func:`pmf` and :func:`cdf` take the fit as their first argument.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from repro.stats.powerlaw import PowerLawFit

__all__ = ["_ks_distance", "_mle_alpha", "cdf", "pmf"]


def pmf(fit: PowerLawFit, x: np.ndarray) -> np.ndarray:
    """Fitted probability mass function on x >= xmin."""
    x = np.asarray(x, dtype=float)
    norm = zeta(fit.alpha, fit.xmin)
    return x ** (-fit.alpha) / norm


def cdf(fit: PowerLawFit, x: int) -> float:
    """Fitted CDF P(X <= x | X >= xmin)."""
    if x < fit.xmin:
        return 0.0
    norm = zeta(fit.alpha, fit.xmin)
    support = np.arange(fit.xmin, x + 1, dtype=float)
    return float((support ** (-fit.alpha)).sum() / norm)


def _mle_alpha(tail: np.ndarray, xmin: int) -> float:
    """Exact discrete MLE for alpha on ``minimize_scalar(method="bounded")``."""
    log_sum = float(np.log(tail).sum())
    n = tail.size

    def negative_log_likelihood(alpha: float) -> float:
        return alpha * log_sum + n * float(np.log(zeta(alpha, xmin)))

    result = minimize_scalar(
        negative_log_likelihood, bounds=(1.01, 6.0), method="bounded"
    )
    return float(result.x)


def _ks_distance(tail: np.ndarray, alpha: float, xmin: int) -> float:
    """KS distance between the empirical tail CDF and the fitted CDF."""
    values, counts = np.unique(tail, return_counts=True)
    empirical = np.cumsum(counts) / tail.size
    norm = zeta(alpha, xmin)
    hi = int(values[-1])
    pmf_support = np.arange(xmin, hi + 1, dtype=float) ** (-alpha) / norm
    cdf_all = np.cumsum(pmf_support)
    fitted = cdf_all[(values - xmin).astype(int)]
    return float(np.abs(empirical - fitted).max())
