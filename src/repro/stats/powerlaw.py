"""Discrete power-law fitting.

Section 4.5 of the paper observes that both the in-degree (followers) and
out-degree (following) distributions of the Dissenter social graph fit a
power law.  This module implements the standard Clauset-Shalizi-Newman
procedure for discrete data: maximum-likelihood estimation of the exponent
``alpha`` for a given ``xmin``, selection of ``xmin`` by minimising the
Kolmogorov-Smirnov distance between data and fit, and a goodness-of-fit KS
statistic.

The fit's two numeric routines are ported here rather than called in
scipy, whose modules would add ≈ 40 MB to a ``repro run`` for them:
:func:`hurwitz_zeta` is Cephes ``zeta`` (what ``scipy.special.zeta(x, q)``
runs) and :func:`_minimize_bounded` is scipy's bounded Brent
(``minimize_scalar(method="bounded")``), both line for line, so every
fitted value has scipy's bits.  ``tests/oracles/powerlaw.py`` keeps the
scipy-backed fit, and ``tests/stats/test_powerlaw_parity.py`` proves the
parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["PowerLawFit", "fit_discrete_powerlaw", "hurwitz_zeta"]

_MAX_XMIN_CANDIDATES = 50

#: Euler-Maclaurin coefficients (2k)! / B_2k, B_2k the Bernoulli numbers.
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta ``sum((k + q) ** -x for k >= 0)``, as Cephes ``zeta``.

    Direct summation until at least nine terms past ``q`` and ``q + i > 9``
    (or until a term no longer moves the sum), then the Euler-Maclaurin
    tail; the asymptotic form for ``q > 1e8``.  ``math.pow`` is the C
    library's ``pow``, as in Cephes, so the result has its bits, except
    that it raises ``OverflowError`` where ``pow`` would overflow to
    infinity (a ``q`` within about ``1e-51`` of zero or a negative
    integer); the fit's ``q`` is an integer ``xmin >= 1``.
    """
    x, q = float(x), float(q)  # the C doubles, also for numpy scalars
    if x == 1.0:
        return math.inf
    if x < 1.0:
        return math.nan
    if q <= 0.0:
        if q == math.floor(q):
            return math.inf
        if x != math.floor(x):
            return math.nan  # q ** -x is not defined
    if q > 1e8:  # https://dlmf.nist.gov/25.11#E43
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)

    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s

    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coefficient
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _sign(value: float) -> int:
    """``np.sign`` of a float that is not NaN."""
    return (value > 0) - (value < 0)


def _minimize_bounded(func: Callable[[float], float], lo: float, hi: float) -> float:
    """The minimiser of ``func`` on ``[lo, hi]`` by scipy's bounded Brent.

    Golden-section steps with parabolic interpolation, ``xatol=1e-5`` and
    at most 500 evaluations, the steps of scipy's
    ``_minimize_scalar_bounded`` in its order.
    """
    xatol = 1e-5
    maxfun = 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (_sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True

        if golden:  # golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (_sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break
    return xf


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
        norm = hurwitz_zeta(self.alpha, self.xmin)
        return x ** (-self.alpha) / norm

    def cdf(self, x: int) -> float:
        """Fitted CDF P(X <= x | X >= xmin)."""
        if x < self.xmin:
            return 0.0
        norm = hurwitz_zeta(self.alpha, self.xmin)
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
    log_sum = float(np.log(tail).sum())
    n = tail.size

    def negative_log_likelihood(alpha: float) -> float:
        return alpha * log_sum + n * float(np.log(hurwitz_zeta(alpha, xmin)))

    return _minimize_bounded(negative_log_likelihood, 1.01, 6.0)


def _ks_distance(tail: np.ndarray, alpha: float, xmin: int) -> float:
    """KS distance between the empirical tail CDF and the fitted CDF."""
    values, counts = np.unique(tail, return_counts=True)
    empirical = np.cumsum(counts) / tail.size
    norm = hurwitz_zeta(alpha, xmin)
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
