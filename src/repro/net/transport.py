"""In-memory loopback transport with deterministic fault injection.

The transport plays the role of the Internet: it resolves a request's host
to a registered origin :class:`~repro.net.router.App`, charges simulated
latency against the shared virtual clock, and — per the paper's §3.2
methodology ("we monitor request timeouts and re-request missed pages") —
can inject timeouts and transient server errors from a seeded RNG so the
crawler's retry logic is genuinely exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.net.clock import VirtualClock
from repro.net.errors import ConnectError, CrawlKilled, TimeoutError
from repro.net.http import Request, Response

if TYPE_CHECKING:   # pragma: no cover - import cycle guard, types only
    from repro.net.router import App

__all__ = ["FaultPlan", "LoopbackTransport", "Transport"]


class Transport(Protocol):
    """Anything that can turn a Request into a Response."""

    def send(self, request: Request, timeout: float) -> Response:
        ...


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection policy.

    Attributes:
        timeout_rate: probability a request hangs past its deadline.
        error_rate: probability a request returns HTTP 503.
        max_faults_per_url: after this many faults for the same URL, the
            URL succeeds — guarantees crawler retry loops terminate.
    """

    timeout_rate: float = 0.0
    error_rate: float = 0.0
    max_faults_per_url: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.timeout_rate <= 1.0:
            raise ValueError("timeout_rate must be in [0, 1]")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if self.max_faults_per_url < 0:
            raise ValueError("max_faults_per_url must be >= 0")


class LoopbackTransport:
    """Routes requests to registered origin apps over a virtual wire.

    Args:
        clock: shared simulation clock; a fresh :class:`VirtualClock` is
            created when omitted.
        latency: simulated per-request round-trip seconds.
        faults: optional :class:`FaultPlan`.
        seed: RNG seed for fault injection.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        latency: float = 0.05,
        faults: FaultPlan | None = None,
        seed: int = 0,
    ) -> None:
        self.clock: VirtualClock = clock if clock is not None else VirtualClock()
        self._latency = latency
        self._faults = faults or FaultPlan()
        self._rng = np.random.default_rng(seed)
        self._origins: dict[str, App] = {}
        self._fault_counts: dict[str, int] = {}
        self._kill_remaining: int | None = None
        self.requests_served = 0
        self.requests_attempted = 0
        self.faults_injected = 0

    def register(self, app: App) -> None:
        """Register an origin App; its ``host`` becomes routable.

        ``send`` reads only ``host`` and ``handle``, and looks ``handle``
        up per request, so a class-level wrapper installed after
        registration (perfbench's spans on ``App.prepare``/
        ``App.render``) still sees every request.
        """
        self._origins[app.host] = app

    def kill_after(self, remaining: int | None) -> None:
        """Arm the die-after-K injector (None disarms).

        After ``remaining`` more send attempts, every subsequent send
        raises :class:`CrawlKilled` — simulating the crawling process
        dying mid-flight so checkpoint/resume paths can be exercised at
        an arbitrary request boundary.
        """
        if remaining is not None and remaining < 0:
            raise ValueError("remaining must be >= 0")
        self._kill_remaining = remaining

    def _maybe_fault(self, request: Request, timeout: float) -> Response | None:
        plan = self._faults
        if plan.timeout_rate == 0.0 and plan.error_rate == 0.0:
            return None
        url_faults = self._fault_counts.get(request.url, 0)
        if url_faults >= plan.max_faults_per_url:
            return None
        roll = self._rng.random()
        if roll < plan.timeout_rate:
            self._fault_counts[request.url] = url_faults + 1
            self.faults_injected += 1
            self.clock.sleep(timeout)
            raise TimeoutError(request.url, timeout)
        if roll < plan.timeout_rate + plan.error_rate:
            self._fault_counts[request.url] = url_faults + 1
            self.faults_injected += 1
            self.clock.sleep(self._latency)
            response = Response(status=503, url=request.url)
            return response
        return None

    def send(self, request: Request, timeout: float = 30.0) -> Response:
        """Deliver a request to its origin.

        Raises:
            ConnectError: no origin registered for the host.
            TimeoutError: injected timeout (per the fault plan).
            CrawlKilled: the die-after-K injector fired.
        """
        if self._kill_remaining is not None:
            if self._kill_remaining <= 0:
                raise CrawlKilled(self.requests_attempted)
            self._kill_remaining -= 1
        self.requests_attempted += 1
        host = request.host
        origin = self._origins.get(host)
        if origin is None:
            raise ConnectError(host)
        faulted = self._maybe_fault(request, timeout)
        if faulted is not None:
            return faulted
        start = self.clock.now()
        self.clock.sleep(self._latency)
        response = origin.handle(request)
        response.elapsed = self.clock.now() - start
        if not response.url:
            response.url = request.url
        self.requests_served += 1
        return response
