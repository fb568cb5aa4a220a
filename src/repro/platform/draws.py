"""Per-item draws that reproduce ``Generator`` draws bit for bit.

The world generators draw one word, syllable, account or flag at a time,
and each numpy call pays for its generality: ``rng.choice`` converts the
population to an array, re-validates and re-accumulates ``p`` and wraps
the result, and even ``rng.integers(0, n)`` or ``rng.random()`` spends
microseconds on argument handling around a few nanoseconds of bit
generation.  :class:`Draws` calls the C functions that numpy's own
``Generator`` calls, ``next_uint32`` and ``next_double`` of the bit
generator (through ``bit_generator.ctypes``), and does numpy's arithmetic
on their results in Python, so it returns the same values and leaves the
same ``bit_generator.state``:

* ``integers(low, high)`` with ``high - low <= 2**32`` is Lemire's
  bounded draw on ``next_uint32``, as numpy does; a range of one draws
  nothing, and a wider range calls ``rng.integers`` itself;
* ``random()`` is one ``next_double``;
* ``choice(items)`` is ``integers(0, len(items))``; with ``p`` it is
  ``cdf = p.cumsum(); cdf /= cdf[-1]`` and
  ``cdf.searchsorted(random(), side="right")`` (:class:`WeightedPicker`,
  :func:`checked_cdf`).

A world's bytes are a function of its seed and of this exact draw
sequence, so any change here shows up in the golden world digests.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_right
from collections.abc import Callable, Sequence
from functools import partial
from typing import Generic, TypeVar

import numpy as np
import numpy.typing as npt

__all__ = ["Draws", "WeightedPicker", "checked_cdf"]

T = TypeVar("T")

#: ``choice``'s tolerance on ``sum(p) - 1`` for float64 probabilities.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: Ranges up to this size take numpy's 32-bit Lemire path.
_UINT32_RANGE = 1 << 32
_LOW32 = _UINT32_RANGE - 1

#: Python-calling-convention prototypes of the bit generator's entry
#: points: unlike the ``CFUNCTYPE`` objects numpy hands out, they keep
#: the GIL across the call, which costs less than dropping and retaking
#: it around a few nanoseconds of work.
_NEXT_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


def _entry_point(function: ctypes._CFuncPtr) -> int:
    address = ctypes.cast(function, ctypes.c_void_p).value
    if address is None:
        raise ValueError("bit generator has a null entry point")
    return address


class Draws:
    """Exact scalar draws on one ``Generator``'s bit generator.

    The state lives in the bit generator, so draws through this object
    and through ``rng`` itself may interleave freely; holding ``rng``
    keeps that state, which the entry points are bound to, alive.
    Unlike the ``Generator`` methods, these calls do not take
    ``bit_generator.lock``: the generator must not be drawn from by
    another thread while a ``Draws`` on it is in use.
    """

    __slots__ = ("rng", "random", "_next_uint32")

    def __init__(self, rng: np.random.Generator) -> None:
        interface = rng.bit_generator.ctypes
        state = interface.state_address
        self.rng = rng
        #: ``rng.random()``: one ``next_double``.  A ``partial`` over the
        #: entry point, so a draw runs no Python frame.
        self.random: Callable[[], float] = partial(
            _NEXT_DOUBLE(_entry_point(interface.next_double)), state
        )
        self._next_uint32: Callable[[], int] = partial(
            _NEXT_UINT32(_entry_point(interface.next_uint32)), state
        )

    def integers(self, low: int, high: int) -> int:
        """``int(rng.integers(low, high))``."""
        n = high - low
        if 1 < n <= _UINT32_RANGE:
            return low + self._lemire(n)
        # A single value draws nothing; an empty range raises and a range
        # past 32 bits takes the 64-bit path, both in numpy.
        return low if n == 1 else int(self.rng.integers(low, high))

    def pick(self, items: Sequence[T]) -> T:
        """One uniform draw: ``rng.choice(items)``."""
        n = len(items)
        return items[self._lemire(n) if 1 < n <= _UINT32_RANGE else self.integers(0, n)]

    def pick_many(self, items: Sequence[T], k: int) -> list[T]:
        """``k`` uniform draws: ``rng.choice(items, size=k)``."""
        n = len(items)
        if 1 < n <= _UINT32_RANGE:
            lemire = self._lemire
            return [items[lemire(n)] for _ in range(k)]
        return [self.pick(items) for _ in range(k)]

    def _lemire(self, n: int) -> int:
        """numpy's ``buffered_bounded_lemire_uint32`` for ``[0, n)``.

        ``1 < n <= 2**32``: scale a ``next_uint32`` by ``n`` and keep the
        high word, redrawing while the low word is below ``2**32 % n``.
        """
        m = self._next_uint32() * n
        if m & _LOW32 < n:
            threshold = (_UINT32_RANGE - n) % n
            while m & _LOW32 < threshold:
                m = self._next_uint32() * n
        return m >> 32


def checked_cdf(p: Sequence[float]) -> list[float]:
    """Validate ``p`` the way ``choice`` does and return its cdf.

    The check sum is Kahan-compensated, as in numpy, so a ``p`` is
    accepted or rejected exactly when ``choice`` would accept or reject
    it.  The cdf is ``p.cumsum() / cdf[-1]`` in float64: ``cumsum`` adds
    left to right, so the Python running sum has the same bits.
    """
    if not p:
        raise ValueError("cannot draw from an empty population")
    total = p[0]
    carry = 0.0
    for value in p[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if total != total:
        raise ValueError("probabilities contain NaN")
    if min(p) < 0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _P_ATOL:
        raise ValueError("probabilities do not sum to 1")
    running = p[0]
    cdf = [running]
    for value in p[1:]:
        running += value
        cdf.append(running)
    return [c / running for c in cdf]


class WeightedPicker(Generic[T]):
    """Repeated weighted draws from one fixed population.

    ``p`` is validated and accumulated once; each draw is then
    ``rng.choice(items, p=p)`` at the cost of one ``next_double`` and a
    bisection (``bisect_right`` has ``searchsorted(side="right")``
    semantics).
    """

    def __init__(self, items: Sequence[T], p: npt.ArrayLike) -> None:
        self.items = tuple(items)
        probs = np.asarray(p, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if probs.size != len(self.items):
            raise ValueError("a and p must have same size")
        self._cdf = checked_cdf(probs.tolist())

    def pick(self, draws: Draws) -> T:
        """One weighted draw: ``rng.choice(items, p=p)``."""
        return self.items[bisect_right(self._cdf, draws.random())]
