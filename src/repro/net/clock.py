"""The simulation clock.

The crawl of a 1.3M-account API at one request per second took the paper's
authors weeks of wall time; our reproduction runs the same control flow
against a virtual clock, so rate-limit waits and timeout arithmetic are
exact but instantaneous.  Every component that needs time takes a clock
object — no module reads ``time.time()`` directly.
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["Clock", "VirtualClock"]


class Clock(Protocol):
    """Minimal clock interface: monotonically non-decreasing seconds."""

    def now(self) -> float:
        """Current time in seconds."""
        ...

    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds``."""
        ...


class VirtualClock:
    """Deterministic simulated clock.

    ``sleep`` advances instantly; ``now`` starts at ``epoch`` (default: the
    Unix timestamp of Dissenter's launch month, Feb 2019, which keeps
    simulated crawl timestamps in the paper's study window).

    Two timelines live here once a :class:`~repro.net.pool.FetchPool` is
    in play.  ``now`` is the *canonical serial timeline*: every sleep
    advances it, in execution order, no matter how many simulated
    connections are configured — this is what keeps server-side
    rate-limit windows, retry schedules and fault injection bit-identical
    at any ``--connections`` value.  ``total_slept`` is the *crawl
    duration metric*: inside a pool flight, slept seconds are captured
    and re-accounted as the makespan over K virtual connections, so a
    concurrent crawl reports ~K× less ``total_slept`` than a serial one
    while observing the exact same ``now`` sequence.
    """

    DISSENTER_LAUNCH = 1_550_000_000.0  # 2019-02-12T19:33:20Z

    def __init__(self, epoch: float = DISSENTER_LAUNCH) -> None:
        self._now = float(epoch)
        self.total_slept = 0.0
        self._flight: float | None = None

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds
        if self._flight is not None:
            self._flight += seconds
        else:
            self.total_slept += seconds

    def advance(self, seconds: float) -> None:
        """Alias for :meth:`sleep` that reads better in server-side code."""
        self.sleep(seconds)

    # ------------------------------------------------------------------
    # Flight capture (the FetchPool's virtual-connection accounting).
    # ------------------------------------------------------------------

    def begin_flight(self) -> None:
        """Start routing slept seconds into the current flight's bucket.

        While a flight is open, ``now`` still advances serially but
        ``total_slept`` does not — the pool converts the captured
        duration into a makespan increment via :meth:`charge_concurrent`.
        Flights cannot nest: one clock models one crawling process.
        """
        if self._flight is not None:
            raise RuntimeError("a flight is already being captured")
        self._flight = 0.0

    def end_flight(self) -> float:
        """Close the open flight; return the seconds it captured."""
        if self._flight is None:
            raise RuntimeError("no flight is being captured")
        captured = self._flight
        self._flight = None
        return captured

    def charge_concurrent(self, seconds: float) -> None:
        """Accrue a makespan increment to ``total_slept``."""
        if seconds < 0:
            raise ValueError("cannot charge a negative duration")
        self.total_slept += seconds

