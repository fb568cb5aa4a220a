"""Per-item draws that reproduce ``Generator.choice`` draw for draw.

The world generators pick one word, syllable or account at a time, and
``rng.choice`` pays for its generality on every such call: it converts
the population to an array, re-validates and re-accumulates ``p``, and
wraps the result.  The helpers here make exactly the calls numpy's own
``choice`` makes on the bit generator, so they return the same items and
leave the same ``bit_generator.state``; they only skip the per-call
overhead.  For sampling with replacement numpy does:

* uniform: ``integers(0, len(items), size=shape)`` and index ``items``;
* weighted: validate ``p``, ``cdf = p.cumsum(); cdf /= cdf[-1]``, draw
  ``random(shape)`` and ``cdf.searchsorted(u, side="right")``.

A world's bytes are a function of its seed and of this exact draw
sequence, so any change here shows up in the golden world digests.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import Generic, TypeVar

import numpy as np
import numpy.typing as npt

__all__ = ["WeightedPicker", "pick", "pick_many", "weighted_indices"]

T = TypeVar("T")

#: ``choice``'s tolerance on ``sum(p) - 1`` for float64 probabilities.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def pick(rng: np.random.Generator, items: Sequence[T]) -> T:
    """One uniform draw: ``rng.choice(items)``."""
    return items[int(rng.integers(0, len(items)))]


def pick_many(rng: np.random.Generator, items: Sequence[T], n: int) -> list[T]:
    """``n`` uniform draws: ``rng.choice(items, size=n)``."""
    return [items[i] for i in rng.integers(0, len(items), size=n).tolist()]


def _checked_cdf(p: npt.ArrayLike, size: int) -> npt.NDArray[np.float64]:
    """Validate ``p`` the way ``choice`` does and return its cdf.

    The sum is Kahan-compensated, as in numpy, so a ``p`` is accepted or
    rejected exactly when ``choice`` would accept or reject it.
    """
    probs = np.asarray(p, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if probs.size != size:
        raise ValueError("a and p must have same size")
    if size == 0:
        raise ValueError("cannot draw from an empty population")
    values = probs.tolist()
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if total != total:
        raise ValueError("probabilities contain NaN")
    if any(value < 0 for value in values):
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _P_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def weighted_indices(
    rng: np.random.Generator, p: npt.ArrayLike, n: int
) -> npt.NDArray[np.intp]:
    """``n`` weighted index draws: ``rng.choice(len(p), size=n, p=p)``.

    ``p`` is validated on every call, as ``choice`` does.
    """
    cdf = _checked_cdf(p, int(np.size(p)))
    return cdf.searchsorted(rng.random(n), side="right")


class WeightedPicker(Generic[T]):
    """Repeated weighted draws from one fixed population.

    ``p`` is validated and accumulated once; each draw is then
    ``rng.choice(items, p=p)`` at the cost of one ``random()`` and a
    bisection.
    """

    def __init__(self, items: Sequence[T], p: npt.ArrayLike) -> None:
        self.items = tuple(items)
        self._cdf: list[float] = _checked_cdf(p, len(self.items)).tolist()

    def pick(self, rng: np.random.Generator) -> T:
        """One weighted draw: ``rng.choice(items, p=p)``."""
        return self.items[bisect_right(self._cdf, rng.random())]
