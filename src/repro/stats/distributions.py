"""Empirical distribution helpers.

The paper reports most of its findings as empirical CDFs (Figures 3, 4, 6,
7, 8b) and concentration statements ("90% of comments are made by about 14%
of active users").  This module implements the primitives behind those
artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ECDF",
    "gini_coefficient",
    "lorenz_curve",
    "quantile",
    "summarize",
    "top_share",
]


class ECDF:
    """Empirical cumulative distribution function of a 1-D sample.

    Evaluation follows the right-continuous convention:
    ``F(x) = (# samples <= x) / n``.
    """

    def __init__(self, samples: Iterable[float]):
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("ECDF requires at least one sample")
        if np.isnan(data).any():
            raise ValueError("ECDF samples must not contain NaN")
        self._sorted = np.sort(data)
        self._n = data.size
        # Rank grid (i+1)/n shared by steps() and the searchsorted-based
        # quantile(): the smallest rank >= q locates the q-quantile.
        self._ranks = np.arange(1, self._n + 1) / self._n

    @property
    def n(self) -> int:
        """Number of samples the ECDF was built from."""
        return self._n

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate F(x); accepts scalars or arrays."""
        idx = np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right")
        result = idx / self._n
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(result)
        return result

    def quantile(
        self, q: float | np.ndarray
    ) -> float | np.ndarray:
        """Inverse CDF: smallest x with F(x) >= q; accepts scalars or arrays.

        Vectorized as a single ``np.searchsorted`` against the cached rank
        grid — the smallest index i with (i+1)/n >= q is exactly the
        ``ceil(q*n) - 1`` the scalar formula used, with q == 0 collapsing
        to the sample minimum.
        """
        q_arr = np.asarray(q, dtype=float)
        if ((q_arr < 0.0) | (q_arr > 1.0) | np.isnan(q_arr)).any():
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        idx = np.searchsorted(self._ranks, q_arr, side="left")
        result = self._sorted[np.minimum(idx, self._n - 1)]
        if np.isscalar(q) or np.asarray(q).ndim == 0:
            return float(result)
        return result

    def survival(self, x: float | np.ndarray) -> float | np.ndarray:
        """Complementary CDF: P(X > x); accepts scalars or arrays."""
        return 1.0 - self(x)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (x, F(x)) arrays suitable for plotting a step function."""
        return self._sorted.copy(), self._ranks.copy()


def quantile(samples: Sequence[float], q: float) -> float:
    """Convenience wrapper: the q-quantile of a raw sample."""
    return ECDF(samples).quantile(q)


def lorenz_curve(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Lorenz curve of a non-negative sample.

    Returns ``(population_fraction, mass_fraction)`` arrays, both beginning
    at 0 and ending at 1, with the sample sorted ascending.  Figure 3 of the
    paper is this curve with axes swapped (users sorted by activity).
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        raise ValueError("lorenz_curve requires at least one value")
    if (data < 0).any():
        raise ValueError("lorenz_curve requires non-negative values")
    total = data.sum()
    if total == 0:
        # Degenerate all-zero sample: equality line.
        frac = np.linspace(0.0, 1.0, data.size + 1)
        return frac, frac.copy()
    cum = np.concatenate([[0.0], np.cumsum(data)]) / total
    pop = np.arange(data.size + 1) / data.size
    return pop, cum


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient computed from the Lorenz curve (trapezoid rule)."""
    pop, cum = lorenz_curve(values)
    area_under_lorenz = float(np.trapezoid(cum, pop))
    return 1.0 - 2.0 * area_under_lorenz


def top_share(values: Sequence[float], population_fraction: float) -> float:
    """Fraction of total mass held by the top ``population_fraction``.

    ``top_share(counts, 0.14)`` answers "what fraction of all comments do the
    top 14% most active users contribute?" — the statistic behind Figure 3's
    takeaway.
    """
    if not 0.0 < population_fraction <= 1.0:
        raise ValueError("population_fraction must be in (0, 1]")
    data = np.sort(np.asarray(list(values), dtype=float))[::-1]
    total = data.sum()
    if total == 0:
        return 0.0
    k = max(1, int(round(population_fraction * data.size)))
    return float(data[:k].sum() / total)


@dataclass(frozen=True)
class SampleSummary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "max": self.maximum,
        }


def summarize(samples: Sequence[float]) -> SampleSummary:
    """Compute a :class:`SampleSummary` for a non-empty sample."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("summarize requires at least one sample")
    return SampleSummary(
        n=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=0)),
        minimum=float(data.min()),
        p25=float(np.percentile(data, 25)),
        median=float(np.median(data)),
        p75=float(np.percentile(data, 75)),
        maximum=float(data.max()),
    )
