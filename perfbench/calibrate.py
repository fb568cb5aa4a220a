"""A clock that runs at the speed of a reference host.

The benchmark's test host is a share of a machine used by others.  Its
speed flips between regimes that differ by up to 1.7x, each lasting from
a fraction of a second to a minute, and CPU time moves with wall time;
no timing of the program alone repeats from one run to the next.

:class:`HostClock` therefore measures the host's speed while the program
runs.  A timer signal interrupts the program about every
``PROBE_INTERVAL`` seconds and runs :func:`reference_work`, a fixed
computation of the benchmark's own.  The wall time between two probes
is scaled by ``REFERENCE_SECONDS / probe``, the probe that opened it:
the clock reads in seconds of a host that runs the reference
computation in ``REFERENCE_SECONDS``.  Time spent in probes is left out.
A change to ``repro`` moves only the program's own time; the reference
computation is not part of the program.

The mix follows the workloads' own: interpreter-bound dict, string and
small-object work, JSON round trips, a regex tokenizer and NumPy passes.
"""

from __future__ import annotations

import gc
import json
import re
import signal
import time

import numpy as np

#: The unit of the scaled clock: timings read in seconds of a host that
#: runs :func:`reference_work` in this time (a 2-core cloud VM takes
#: 1.8 ms in its fast regime and about 3 ms in its slow one).
REFERENCE_SECONDS = 0.0027

#: What :func:`reference_work` returns; a different value means the
#: computation was not the same.
CHECKSUM = 95093

#: Seconds of program time between two probes.
PROBE_INTERVAL = 0.1

_WORDS = re.compile(r"[a-z]+")


def reference_work() -> int:
    """One fixed unit of host work; returns a checksum of its result."""
    counts: dict[str, int] = {}
    records = []
    for i in range(250):
        text = f"user {i % 97} posted comment {i} about page {i % 31} ok"
        for word in _WORDS.findall(text):
            counts[word] = counts.get(word, 0) + 1
        records.append({"id": i, "text": text, "score": (i * 7919) % 1000})
    decoded = json.loads(json.dumps(records))
    ranked = sorted((r["score"], r["id"]) for r in decoded)
    values = np.arange(15_000, dtype=np.float64)
    for _ in range(4):
        values = np.sqrt(values * 1.5 + 2.0)
    order = np.argsort(values[::-1] % 7.0, kind="stable")
    return (len(counts) + ranked[len(ranked) // 2][1]
            + int(order[:100].sum()) % 100_003)


def probe() -> float:
    """Seconds one :func:`reference_work` takes now."""
    enabled = gc.isenabled()
    gc.disable()   # a collection of the program's heap is not host speed
    try:
        start = time.perf_counter()
        result = reference_work()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError(f"reference work returned {result}")
    return elapsed


class HostClock:
    """Reference-host seconds since :meth:`start`, probes left out.

    Single-threaded: the probes run in a ``SIGALRM`` handler on the main
    thread, between two bytecodes of the program.  Use as a context
    manager so the timer and the old handler are always restored.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.probe_s = 0.0          # wall time spent in probes
        self._ref = 0.0             # reference seconds up to _mark
        self._mark = 0.0            # perf_counter() when the last probe ended
        self._factor = 1.0
        self._generation = 0
        self._old_handler = None

    def __enter__(self) -> "HostClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        seconds = probe()
        end = time.perf_counter()
        if self.probes:
            self._ref += (start - self._mark) * self._factor
        self._mark = end
        self._factor = REFERENCE_SECONDS / seconds
        self.probes.append(seconds)
        self.probe_s += end - start
        self._generation += 1

    def now(self) -> float:
        """Reference seconds so far; a probe that interrupts it retries."""
        while True:
            generation = self._generation
            value = self._ref + (time.perf_counter() - self._mark) * self._factor
            if generation == self._generation:
                return value
