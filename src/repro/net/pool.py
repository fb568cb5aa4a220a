"""Deterministic concurrent fetch engine: virtual connections + windows.

The paper's crawls took weeks at ~1 req/s because every request was
serial; a real measurement crawler keeps K connections in flight.  The
:class:`FetchPool` models that concurrency *deterministically*:

* **Virtual time.**  Each fetch runs inside a *flight* that captures the
  simulated seconds it slept (transport latency, retry backoff, rate-limit
  waits).  Flights are scheduled onto K virtual connection lanes through a
  min-heap of lane-free times — ties broken by submission sequence number —
  so the crawl's simulated duration (``VirtualClock.total_slept``) becomes
  the *makespan* over K lanes instead of the serial sum: ~K× lower.

* **Determinism.**  Fetches still *execute* in submission order against
  the shared canonical clock, so origins, fault injection, retries and
  rate-limit windows observe the exact same request sequence at any lane
  count: the corpus, stats and checkpoints are bit-identical across
  ``--connections`` values.  With ``connections=1`` the engine degenerates
  to the historical sequential crawl, step for step.

* **Windowed merge.**  :meth:`FetchPool.run` drives a crawl stage as
  repeated windows of up to K jobs: a *plan* callback chooses the next
  window (observing fully merged state, so job selection is identical to
  the sequential crawl), fetches run in submission order, and *process*
  parses and merges each result in submission order — one checkpoint
  tick per job, exactly where the sequential crawl ticked.  Everything
  runs on the calling thread.

* **Crash safety.**  A :class:`~repro.net.errors.CrawlKilled` (or any
  error) raised mid-window first merges the completed prefix — so the
  last checkpoint reflects exactly the work a sequential crawl would have
  completed — then propagates.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence, TypeVar

from repro.net.clock import VirtualClock

__all__ = ["FetchPool", "FetchPoolStats"]

J = TypeVar("J")
R = TypeVar("R")


class SupportsTick(Protocol):
    """What :meth:`FetchPool.run` needs from a checkpointer."""

    def tick(self) -> bool: ...


@dataclass
class FetchPoolStats:
    """Counters one pool accumulated (surfaced on report extras)."""

    connections: int = 1
    jobs: int = 0                   # flights scheduled
    windows: int = 0                # plan() windows executed
    high_watermark: int = 0         # max simultaneously-busy lanes
    busy_seconds: float = 0.0       # serial sum of flight durations
    makespan_seconds: float = 0.0   # concurrent elapsed over K lanes

    @property
    def speedup(self) -> float:
        """Serial-vs-concurrent simulated-duration ratio."""
        if self.makespan_seconds <= 0:
            return 1.0
        return self.busy_seconds / self.makespan_seconds

    def as_dict(self) -> dict[str, object]:
        return {
            "connections": self.connections,
            "jobs": self.jobs,
            "windows": self.windows,
            "high_watermark": self.high_watermark,
            "busy_seconds": round(self.busy_seconds, 6),
            "makespan_seconds": round(self.makespan_seconds, 6),
            "speedup": round(self.speedup, 3),
        }


class FetchPool:
    """K virtual connections over a virtual-time event scheduler.

    Args:
        clock: the transport's clock, whose flights the pool captures.
        connections: number of simulated concurrent connections (>= 1).
    """

    def __init__(self, clock: VirtualClock, connections: int = 1) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self._clock = clock
        self.connections = int(connections)
        # Lane heap entries: (free_at, seq_of_freeing_job, lane_id).  The
        # submission sequence number breaks free-time ties so lane
        # assignment — and therefore the makespan — is fully determined
        # by the job sequence, never by heap internals.
        self._lanes: list[tuple[float, int, int]] = [
            (0.0, -lane, lane) for lane in range(self.connections)
        ]
        heapq.heapify(self._lanes)
        self._seq = 0
        self._makespan = 0.0
        self.stats = FetchPoolStats(connections=self.connections)

    # ------------------------------------------------------------------
    # Virtual-time lane scheduling.
    # ------------------------------------------------------------------

    def _schedule(self, duration: float) -> float:
        """Place one flight on the earliest-free lane.

        Returns the makespan increment the flight caused (0 when it fit
        entirely inside the existing schedule's shadow).
        """
        seq = self._seq
        self._seq += 1
        free_at, _, lane = heapq.heappop(self._lanes)
        busy = sum(1 for entry in self._lanes if entry[0] > free_at)
        self.stats.high_watermark = max(self.stats.high_watermark, busy + 1)
        end = free_at + duration
        heapq.heappush(self._lanes, (end, seq, lane))
        previous = self._makespan
        self._makespan = max(self._makespan, end)
        self.stats.jobs += 1
        self.stats.busy_seconds += duration
        self.stats.makespan_seconds = self._makespan
        return self._makespan - previous

    def _end_flight(self) -> None:
        """Close the open flight and schedule it onto a lane."""
        self._clock.charge_concurrent(self._schedule(self._clock.end_flight()))

    @contextmanager
    def flight(self) -> Iterator[None]:
        """Account one fetch (plus its retries and waits) as a flight.

        Slept seconds inside the block are captured off the clock's
        ``total_slept`` and re-accounted as the makespan increment of the
        flight's lane assignment.  Exceptions (including
        ``CrawlKilled``) still schedule the partial duration — the time
        was spent — and propagate.
        """
        self._clock.begin_flight()
        try:
            yield
        finally:
            self._end_flight()

    # ------------------------------------------------------------------
    # The windowed fetch/merge engine.
    # ------------------------------------------------------------------

    def run(
        self,
        plan: Callable[[int], Sequence[J]],
        fetch: Callable[[J], R],
        process: Callable[[J, R], None],
        checkpointer: SupportsTick | None = None,
    ) -> int:
        """Drive a crawl stage through repeated windows of K jobs.

        Args:
            plan: called with the window capacity; returns the next jobs
                (at most that many; empty ends the stage).  It runs with
                all previous windows fully merged and MUST NOT mutate
                crawler state — selection has to match what a sequential
                crawl would fetch next.
            fetch: issues one job's HTTP traffic (retries included);
                runs serially in submission order inside a flight.
            process: parses one job's fetched value and merges it into
                crawler state; runs in submission order, after which
                the checkpointer (when given) ticks — the same cadence
                as a sequential crawl.

        Returns the number of jobs processed.
        """
        done = 0
        while True:
            jobs = list(plan(self.connections))
            if not jobs:
                return done
            if len(jobs) > self.connections:
                raise ValueError(
                    f"plan returned {len(jobs)} jobs for a "
                    f"{self.connections}-connection window"
                )
            self.stats.windows += 1
            fetched: list[tuple[J, R]] = []
            failure: BaseException | None = None
            for job in jobs:
                # flight() inlined: no generator frame per job.
                try:
                    self._clock.begin_flight()
                    try:
                        fetched.append((job, fetch(job)))
                    finally:
                        self._end_flight()
                except Exception as exc:
                    # Merge the completed prefix before propagating, so
                    # the last checkpoint matches a sequential crawl
                    # dying at the same request boundary.
                    failure = exc
                    break
            for job, value in fetched:
                process(job, value)
                done += 1
                if checkpointer is not None:
                    checkpointer.tick()
            if failure is not None:
                raise failure
