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
  the sequential crawl), fetches run in submission order, pure *parse*
  work is optionally dispatched onto a bounded worker pool, and *process*
  merges results back in submission order — one checkpoint tick per job,
  exactly where the sequential crawl ticked.

* **Crash safety.**  A :class:`~repro.net.errors.CrawlKilled` (or any
  error) raised mid-window first merges the completed prefix — so the
  last checkpoint reflects exactly the work a sequential crawl would have
  completed — then propagates.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence, TypeVar

from repro.net.clock import Clock

__all__ = ["FetchPool", "FetchPoolStats"]

J = TypeVar("J")


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
    parse_tasks: int = 0            # parse callbacks offloaded to workers

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
            "parse_tasks": self.parse_tasks,
        }


class FetchPool:
    """K virtual connections over a virtual-time event scheduler.

    Args:
        clock: the crawl's clock (normally the transport's
            :class:`~repro.net.clock.VirtualClock`; a clock without
            flight capture — e.g. ``SystemClock`` — is scheduled from
            ``now()`` deltas and no makespan credit is issued, since the
            real seconds were genuinely spent).
        connections: number of simulated concurrent connections (>= 1).
        parse_workers: thread-pool size for the pure parse callbacks of
            :meth:`run`; 0 parses inline.  Parsing is pure and results
            merge in submission order, so any worker count is
            bit-identical.
    """

    def __init__(
        self,
        clock: Clock,
        connections: int = 1,
        parse_workers: int = 0,
    ) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        if parse_workers < 0:
            raise ValueError("parse_workers must be >= 0")
        self._clock = clock
        # Whether the clock captures flights (VirtualClock) or is only
        # read through now() deltas; fixed for the pool's lifetime.
        self._captures = getattr(clock, "begin_flight", None) is not None
        self.connections = int(connections)
        self._parse_workers = int(parse_workers)
        self._executor: ThreadPoolExecutor | None = None
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
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the parse worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    def _pool(self) -> ThreadPoolExecutor | None:
        if self._parse_workers <= 0:
            return None
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._parse_workers,
                thread_name_prefix="fetchpool-parse",
            )
        return self._executor

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
        # FetchPoolStats is written from the coordinator thread only:
        # parse workers run the pure parse callback and never touch it.
        # repro: allow CONC001 coordinator-thread-only writes
        self.stats.high_watermark = max(self.stats.high_watermark, busy + 1)
        end = free_at + duration
        heapq.heappush(self._lanes, (end, seq, lane))
        previous = self._makespan
        self._makespan = max(self._makespan, end)
        self.stats.jobs += 1        # repro: allow CONC001 coordinator-only
        self.stats.busy_seconds += duration   # repro: allow CONC001 coordinator-only
        self.stats.makespan_seconds = self._makespan   # repro: allow CONC001 coordinator-only
        return self._makespan - previous

    def _begin_flight(self) -> float:
        """Open a flight; returns its start time (``now()`` clocks only)."""
        if self._captures:
            self._clock.begin_flight()  # type: ignore[attr-defined]
            return 0.0
        return self._clock.now()

    def _end_flight(self, start: float) -> None:
        """Close the open flight and schedule it onto a lane."""
        if self._captures:
            delta = self._schedule(self._clock.end_flight())  # type: ignore[attr-defined]
            self._clock.charge_concurrent(delta)  # type: ignore[attr-defined]
        else:
            self._schedule(self._clock.now() - start)

    @contextmanager
    def flight(self) -> Iterator[None]:
        """Account one fetch (plus its retries and waits) as a flight.

        Slept seconds inside the block are captured off the clock's
        ``total_slept`` and re-accounted as the makespan increment of the
        flight's lane assignment.  Exceptions (including
        ``CrawlKilled``) still schedule the partial duration — the time
        was spent — and propagate.
        """
        start = self._begin_flight()
        try:
            yield
        finally:
            self._end_flight(start)

    # ------------------------------------------------------------------
    # The windowed fetch/parse/merge engine.
    # ------------------------------------------------------------------

    def run(
        self,
        plan: Callable[[int], Sequence[J]],
        fetch: Callable[[J], object],
        process: Callable[[J, object], None],
        parse: Callable[[J, object], object] | None = None,
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
            parse: optional *pure* transform of the fetched value; runs
                on the parse worker pool when one is configured.
            process: merges one job's (parsed) result into crawler
                state; runs in submission order, after which the
                checkpointer (when given) ticks — the same cadence as a
                sequential crawl.

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
            self.stats.windows += 1   # repro: allow CONC001 coordinator-only
            fetched: list[tuple[J, object]] = []
            failure: BaseException | None = None
            for job in jobs:
                # flight() inlined: no generator frame per job.
                try:
                    start = self._begin_flight()
                    try:
                        fetched.append((job, fetch(job)))
                    finally:
                        self._end_flight(start)
                except Exception as exc:
                    # Merge the completed prefix before propagating, so
                    # the last checkpoint matches a sequential crawl
                    # dying at the same request boundary.
                    failure = exc
                    break
            executor = self._pool() if parse is not None else None
            if parse is None:
                parsed = [raw for _, raw in fetched]
            elif executor is None:
                parsed = [parse(job, raw) for job, raw in fetched]
            else:
                futures = [
                    executor.submit(parse, job, raw) for job, raw in fetched
                ]
                # repro: allow CONC001 coordinator-thread-only write
                self.stats.parse_tasks += len(futures)
                parsed = [future.result() for future in futures]
            for (job, _), value in zip(fetched, parsed):
                process(job, value)
                done += 1
                if checkpointer is not None:
                    checkpointer.tick()
            if failure is not None:
                raise failure
