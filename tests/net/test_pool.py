"""FetchPool: virtual-connection scheduling and the windowed engine."""

import pytest

from repro.net.clock import VirtualClock
from repro.net.errors import CrawlKilled
from repro.net.pool import FetchPool


class TickCounter:
    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


# ----------------------------------------------------------------------
# Lane scheduling / makespan arithmetic.
# ----------------------------------------------------------------------


class TestLaneScheduling:
    def test_single_lane_makespan_is_serial_sum(self):
        pool = FetchPool(VirtualClock(), connections=1)
        for duration in (2.0, 3.0, 5.0):
            pool._schedule(duration)
        assert pool.stats.busy_seconds == 10.0
        assert pool.stats.makespan_seconds == 10.0
        assert pool.stats.speedup == 1.0

    def test_two_lanes_overlap(self):
        # lane A: 4s;  lane B: 1+1+1 = 3s  -> makespan 4, busy 7.
        pool = FetchPool(VirtualClock(), connections=2)
        deltas = [pool._schedule(d) for d in (4.0, 1.0, 1.0, 1.0)]
        assert pool.stats.busy_seconds == 7.0
        assert pool.stats.makespan_seconds == 4.0
        # First flight extends the makespan to 4; the 1s flights all fit
        # inside its shadow on the other lane (ending at 1, 2, 3).
        assert deltas == [4.0, 0.0, 0.0, 0.0]
        assert pool.stats.speedup == pytest.approx(7.0 / 4.0)

    def test_earliest_free_lane_wins(self):
        pool = FetchPool(VirtualClock(), connections=2)
        pool._schedule(10.0)   # lane 0 busy until t=10
        pool._schedule(1.0)    # lane 1 busy until t=1
        pool._schedule(1.0)    # goes to lane 1 (free at 1), ends at 2
        assert pool.stats.makespan_seconds == 10.0
        pool._schedule(9.0)    # lane 1 again (free at 2), ends at 11
        assert pool.stats.makespan_seconds == 11.0

    def test_tie_break_is_submission_order(self):
        # Both lanes free at t=0: the tie must resolve identically on
        # every run (heap order fully determined by the seeded tuples).
        first = FetchPool(VirtualClock(), connections=3)
        second = FetchPool(VirtualClock(), connections=3)
        durations = [3.0, 3.0, 3.0, 1.0, 2.0, 1.0, 4.0]
        a = [first._schedule(d) for d in durations]
        b = [second._schedule(d) for d in durations]
        assert a == b
        assert first._lanes == second._lanes

    def test_high_watermark_counts_busy_lanes(self):
        pool = FetchPool(VirtualClock(), connections=4)
        pool._schedule(10.0)
        pool._schedule(10.0)
        pool._schedule(10.0)
        assert pool.stats.high_watermark == 3
        # Fourth flight starts while the other three are still busy.
        pool._schedule(1.0)
        assert pool.stats.high_watermark == 4

    def test_zero_duration_flight_costs_nothing(self):
        pool = FetchPool(VirtualClock(), connections=2)
        assert pool._schedule(0.0) == 0.0
        assert pool.stats.jobs == 1
        assert pool.stats.makespan_seconds == 0.0
        assert pool.stats.speedup == 1.0

    def test_connection_count_validated(self):
        with pytest.raises(ValueError):
            FetchPool(VirtualClock(), connections=0)

    def test_stats_as_dict_round_trips(self):
        pool = FetchPool(VirtualClock(), connections=2)
        pool._schedule(4.0)
        pool._schedule(2.0)
        snap = pool.stats.as_dict()
        assert snap["connections"] == 2
        assert snap["jobs"] == 2
        assert snap["busy_seconds"] == 6.0
        assert snap["makespan_seconds"] == 4.0
        assert snap["speedup"] == 1.5


# ----------------------------------------------------------------------
# Flight capture against the virtual clock.
# ----------------------------------------------------------------------


class TestFlightCapture:
    def test_flight_reroutes_sleep_into_makespan(self):
        clock = VirtualClock(epoch=0.0)
        pool = FetchPool(clock, connections=2)
        with pool.flight():
            clock.sleep(4.0)
        with pool.flight():
            clock.sleep(3.0)
        # Canonical timeline: both sleeps happened serially.
        assert clock.now() == 7.0
        # Duration metric: the 3s flight fits beside the 4s one.
        assert clock.total_slept == 4.0

    def test_sleep_outside_flight_charges_serially(self):
        clock = VirtualClock(epoch=0.0)
        pool = FetchPool(clock, connections=8)
        clock.sleep(5.0)
        with pool.flight():
            clock.sleep(1.0)
        assert clock.total_slept == 6.0

    def test_failed_flight_still_schedules_partial_time(self):
        clock = VirtualClock(epoch=0.0)
        pool = FetchPool(clock, connections=1)
        with pytest.raises(CrawlKilled):
            with pool.flight():
                clock.sleep(2.5)
                raise CrawlKilled("die-after")
        assert clock.total_slept == 2.5
        assert pool.stats.jobs == 1

    def test_flights_cannot_nest(self):
        clock = VirtualClock()
        pool = FetchPool(clock, connections=2)
        with pytest.raises(RuntimeError):
            with pool.flight():
                with pool.flight():
                    pass  # pragma: no cover


# ----------------------------------------------------------------------
# The windowed plan/fetch/process engine.
# ----------------------------------------------------------------------


def run_range(pool, n, log, checkpointer=None):
    """Drive the pool over jobs 0..n-1, appending events to ``log``."""
    cursor = 0

    def plan(capacity):
        return list(range(cursor, min(cursor + capacity, n)))

    def fetch(job):
        log.append(("fetch", job))
        return job * 10

    def process(job, value):
        nonlocal cursor
        log.append(("process", job, value))
        cursor = job + 1

    return pool.run(plan, fetch, process, checkpointer=checkpointer)


class TestRunEngine:
    def test_fetches_serial_then_merges_in_order(self):
        log = []
        pool = FetchPool(VirtualClock(), connections=3)
        done = run_range(pool, 7, log)
        assert done == 7
        fetches = [e[1] for e in log if e[0] == "fetch"]
        processes = [e[1] for e in log if e[0] == "process"]
        assert fetches == processes == list(range(7))
        # 7 jobs over windows of 3: [0,1,2], [3,4,5], [6].
        assert pool.stats.windows == 3
        # Every fetch in a window happens before any of its merges.
        assert log[:6] == [
            ("fetch", 0), ("fetch", 1), ("fetch", 2),
            ("process", 0, 0), ("process", 1, 10), ("process", 2, 20),
        ]

    def test_one_tick_per_processed_job(self):
        log, ticker = [], TickCounter()
        pool = FetchPool(VirtualClock(), connections=4)
        run_range(pool, 10, log, checkpointer=ticker)
        assert ticker.ticks == 10

    def test_plan_overrun_is_an_error(self):
        pool = FetchPool(VirtualClock(), connections=2)
        with pytest.raises(ValueError, match="3 jobs"):
            pool.run(lambda cap: [1, 2, 3], lambda j: j, lambda j, v: None)

    def test_midwindow_failure_merges_completed_prefix(self):
        clock = VirtualClock()
        pool = FetchPool(clock, connections=4)
        merged, ticker = [], TickCounter()

        def plan(capacity):
            return list(range(len(merged), min(len(merged) + capacity, 8)))

        def fetch(job):
            if job == 2:
                raise CrawlKilled("boom")
            return job

        def process(job, value):
            merged.append(job)

        with pytest.raises(CrawlKilled):
            pool.run(plan, fetch, process, checkpointer=ticker)
        # Jobs 0 and 1 completed before the kill: they must be merged
        # (and ticked) exactly as a sequential crawl dying at job 2.
        assert merged == [0, 1]
        assert ticker.ticks == 2
