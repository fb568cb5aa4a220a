"""Discrete power-law fitting.

Section 4.5 of the paper observes that both the in-degree (followers) and
out-degree (following) distributions of the Dissenter social graph fit a
power law.  This module implements the standard Clauset-Shalizi-Newman
procedure for discrete data: maximum-likelihood estimation of the exponent
``alpha`` for a given ``xmin``, selection of ``xmin`` by minimising the
Kolmogorov-Smirnov distance between data and fit, and a goodness-of-fit KS
statistic.

scipy is imported on the first fit, not with this module: a crawl or a
serve process imports ``repro.stats`` for its sampling helpers and never
fits anything (``tests/stats/test_scipy_footprint.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PowerLawFit", "fit_discrete_powerlaw"]

_MAX_XMIN_CANDIDATES = 50


def _scipy():
    """``(minimize_scalar, zeta)``, imported when a fit first needs them."""
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta

    return minimize_scalar, zeta


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law fit.

    Attributes:
        alpha: estimated exponent (P(X = x) proportional to x**-alpha).
        xmin: lower cut-off the law applies above.
        ks_distance: KS distance between empirical and fitted CDFs on the
            tail x >= xmin.
        n_tail: number of observations in the fitted tail.
    """

    alpha: float
    xmin: int
    ks_distance: float
    n_tail: int

    def pmf(self, x: np.ndarray) -> np.ndarray:
        """Fitted probability mass function on x >= xmin."""
        x = np.asarray(x, dtype=float)
        _, zeta = _scipy()
        norm = zeta(self.alpha, self.xmin)
        return x ** (-self.alpha) / norm

    def cdf(self, x: int) -> float:
        """Fitted CDF P(X <= x | X >= xmin)."""
        if x < self.xmin:
            return 0.0
        _, zeta = _scipy()
        norm = zeta(self.alpha, self.xmin)
        support = np.arange(self.xmin, x + 1, dtype=float)
        return float((support ** (-self.alpha)).sum() / norm)


def _mle_alpha(tail: np.ndarray, xmin: int) -> float:
    """Exact discrete MLE for alpha.

    Minimises the negative log-likelihood
    ``alpha * sum(log x) + n * log(zeta(alpha, xmin))`` numerically.  The
    popular closed-form approximation (Clauset et al., eq. 3.7) is badly
    biased for small ``xmin`` (the common case for degree data), so the
    exact objective is used instead.
    """
    minimize_scalar, zeta = _scipy()
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
    _, zeta = _scipy()
    norm = zeta(alpha, xmin)
    # Fitted CDF evaluated at each distinct observed value.
    hi = int(values[-1])
    pmf_support = np.arange(xmin, hi + 1, dtype=float) ** (-alpha) / norm
    cdf_all = np.cumsum(pmf_support)
    fitted = cdf_all[(values - xmin).astype(int)]
    return float(np.abs(empirical - fitted).max())


def fit_discrete_powerlaw(
    degrees: Sequence[int],
    xmin: int | None = None,
) -> PowerLawFit:
    """Fit a discrete power law to positive integer data.

    Args:
        degrees: sample of positive integers (zeros are dropped — a degree-0
            node carries no information about the tail).
        xmin: fix the lower cut-off; when ``None`` it is chosen by scanning
            candidate values and minimising the KS distance.

    Returns:
        The best :class:`PowerLawFit`.

    Raises:
        ValueError: if fewer than 10 positive observations are available.
    """
    data = np.asarray([d for d in degrees if d > 0], dtype=float)
    if data.size < 10:
        raise ValueError(
            f"power-law fit needs >= 10 positive observations, got {data.size}"
        )

    if xmin is not None:
        candidates = [int(xmin)]
    else:
        distinct = np.unique(data).astype(int)
        # Never place xmin so deep in the tail that fewer than 10 points remain.
        viable = [x for x in distinct if (data >= x).sum() >= 10]
        candidates = viable[:_MAX_XMIN_CANDIDATES] or [int(distinct[0])]

    best: PowerLawFit | None = None
    for cand in candidates:
        tail = data[data >= cand]
        if tail.size < 2:
            continue
        alpha = _mle_alpha(tail, cand)
        if not np.isfinite(alpha) or alpha <= 1.0:
            continue
        ks = _ks_distance(tail, alpha, cand)
        fit = PowerLawFit(alpha=float(alpha), xmin=cand, ks_distance=ks, n_tail=int(tail.size))
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise ValueError("no viable power-law fit found for the given data")
    return best
