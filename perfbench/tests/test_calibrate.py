"""Tests for the benchmark's host-speed clock."""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402


def test_reference_work_is_fixed():
    assert calibrate.reference_work() == calibrate.CHECKSUM
    assert calibrate.probe() > 0.0


def test_clock_probes_and_restores_the_timer():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.HostClock() as clock:
        first = clock.now()
        deadline = time.perf_counter() + 0.35
        readings = []
        while time.perf_counter() < deadline:
            readings.append(clock.now())
        last = clock.now()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.probes) >= 3          # the opening probe and the timer's
    assert readings == sorted(readings)    # never runs backwards
    assert last > first
    assert clock.probe_s > 0.0


def test_probe_time_is_left_out():
    clock = calibrate.HostClock()
    clock._probe()
    start = clock.now()
    clock._probe()                         # a probe between two readings
    clock._probe()
    between = clock.now() - start
    # Two probes' worth of reference work passed, but only the moments
    # outside them count.
    assert between < 2 * calibrate.REFERENCE_SECONDS
