"""Metric helpers shared by the benchmark runner and its tests.

Pure Python with no dependency on ``repro``, so the tests can check the
statistics and the failure accounting on their own.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Percentiles tried, highest first, when reporting a distribution's tail.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)

#: A tail percentile is only reported with at least this many samples
#: strictly above it.
MIN_BEYOND = 10

#: The URL fragments a ``LoadGenerator`` uses for its scheduled 404
#: probes (``MISS_PROBABILITY``): unknown URL ids, unknown usernames and
#: an unknown lookup target.
PROBE_MARKERS = ("/missing-", "/ghost-", "nowhere.example")


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(ordered, q: float) -> float:
    """ECDF percentile ``q`` (0-100) of an ascending sequence.

    The sample at index ``ceil(q/100 * n) - 1``, the convention the serve
    load report uses for its virtual latencies.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(n, q) - 1])


def _rank(n: int, q: float) -> int:
    """1-based ECDF rank of percentile ``q``; rounding keeps 99.9% of 1000
    at 999 rather than the float product's 999.0000000000001."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def beyond(n: int, q: float) -> int:
    """Samples strictly above the ECDF percentile ``q`` of ``n`` samples."""
    return n - _rank(n, q)


@dataclass(frozen=True)
class Distribution:
    """Median and highest well-supported tail of one timing sample set."""

    count: int
    p50: float
    tail_q: float | None        # e.g. 99.0; None with too few samples
    tail: float | None

    @property
    def tail_label(self) -> str:
        if self.tail_q is None:
            return "-"
        return "p" + f"{self.tail_q:g}"


def distribution(samples) -> Distribution:
    """Median plus the highest percentile with ``MIN_BEYOND`` samples above.

    The tail is taken from :data:`TAIL_LADDER`; with fewer than
    ``MIN_BEYOND`` samples beyond even p90 there is no tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("distribution of no samples")
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return Distribution(n, percentile(ordered, 50.0), q,
                                percentile(ordered, q))
    return Distribution(n, percentile(ordered, 50.0), None, None)


def quantile_at(samples, q: float) -> float:
    """Percentile ``q`` of ``samples``, refused when too thinly supported."""
    ordered = sorted(samples)
    if beyond(len(ordered), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"only {len(ordered)} samples"
        )
    return percentile(ordered, q)


def is_probe_url(url: str) -> bool:
    """Whether ``url`` is one of the load generator's scheduled 404 probes."""
    return any(marker in url for marker in PROBE_MARKERS)


def serve_failures(status_counts: dict[int, int], probe_404s: int) -> int:
    """Failed serve requests: final non-200 responses minus probe 404s.

    ``status_counts`` holds each request's final status, so a request
    the generator gave up on after a second 429 (``gave_up_throttled``)
    is counted once, as its 429.  ``probe_404s`` is the number of
    scheduled probes that were answered 404, as they should be.
    """
    non_ok = sum(count for status, count in status_counts.items()
                 if status != 200)
    if not 0 <= probe_404s <= status_counts.get(404, 0):
        raise ValueError("more probe 404s than 404 responses")
    return non_ok - probe_404s


@dataclass
class Tally:
    """Attempted and failed operations of one benchmark run.

    A failed correctness gate marks the whole run failed: once
    :meth:`fail_gate` is called, every attempted operation counts as
    failed, whatever else was recorded.
    """

    attempted: int = 0
    failed: int = 0
    gate_failed: bool = False

    def add(self, attempted: int, failed: int) -> None:
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad tally {failed}/{attempted}")
        self.attempted += attempted
        self.failed += failed

    def fail_gate(self) -> None:
        self.gate_failed = True

    @property
    def failed_total(self) -> int:
        return self.attempted if self.gate_failed else self.failed

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            return 1.0 if self.gate_failed else 0.0
        return self.failed_total / self.attempted

    @property
    def correct(self) -> bool:
        return not self.gate_failed
