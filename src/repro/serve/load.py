"""Deterministic load generator for the serve API.

Simulates N users hammering the read API with the same calibrated
power-law shapes the platform generator uses: per-user activity follows
``pareto(comment_activity_alpha) + 0.08`` (the §4 comment-concentration
calibration) and per-URL popularity follows ``pareto(1.1) + 0.2`` (the
URL generator's popularity draw).  Everything — which user issues which
request against which resource, the think-time gaps between requests,
the 404-probing misses — is pre-sampled from one seeded generator, so
two runs with the same seed produce byte-identical request logs, latency
histograms, and cache counters.

Latency is virtual: the transport charges wire latency and the app
charges render costs against the shared :class:`~repro.net.clock.
VirtualClock`, so ``requests/sec`` and the p50/p99 below are simulation
metrics, reproducible bit-for-bit on any host.  Wall-clock throughput is
a property of the machine and is reported separately by the benchmark.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.net.http import Request, url_with_params
from repro.net.transport import LoopbackTransport
from repro.serve.api import ServeApp

__all__ = ["LoadGenerator", "LoadReport"]

#: Endpoint mix: (tag, weight).  Tags drive URL construction below.
ENDPOINT_MIX = (
    ("thread", 0.45),
    ("user", 0.20),
    ("summary_url", 0.15),
    ("summary_user", 0.10),
    ("url_lookup", 0.05),
    ("core", 0.03),
    ("core_member", 0.02),
)

#: Fraction of requests aimed at identifiers that do not exist, so the
#: 404 path (and its cacheability) is always exercised.
MISS_PROBABILITY = 0.01

#: Virtual-latency histogram bin edges (seconds); the last bin is open.
HISTOGRAM_EDGES = (0.05, 0.06, 0.08, 0.10, 0.15, 0.25, 0.50, 1.00)


def _inverse_cdf(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, draws, side="right")``, searched in key order.

    The same indexes; sorted keys let each binary search start where the
    last one ended, which over a 10^6-entry CDF saves most of the cache
    misses of searching in draw order.
    """
    order = np.argsort(draws, kind="stable")
    picks = np.empty(draws.size, dtype=np.intp)
    picks[order] = np.searchsorted(cdf, draws[order], side="right")
    return picks


def _ecdf_quantile(ordered: np.ndarray, q: float) -> float:
    """ECDF quantile: sorted array indexed at ``ceil(q*n) - 1``."""
    n = ordered.size
    if n == 0:
        return 0.0
    return float(ordered[max(0, math.ceil(q * n) - 1)])


@dataclass
class LoadReport:
    """Everything one load run measured (all virtual, all deterministic)."""

    users: int
    requests: int
    status_counts: dict[int, int] = field(default_factory=dict)
    cache_dispositions: dict[str, int] = field(default_factory=dict)
    throttled_retries: int = 0
    gave_up_throttled: int = 0
    virtual_seconds: float = 0.0
    p50: float = 0.0
    p99: float = 0.0
    mean_latency: float = 0.0
    histogram: list[int] = field(default_factory=list)
    cache_stats: dict[str, int] = field(default_factory=dict)
    ratelimit_stats: dict[str, int] = field(default_factory=dict)
    request_log: list[tuple] | None = None

    @property
    def virtual_rps(self) -> float:
        if self.virtual_seconds <= 0:
            return 0.0
        return self.requests / self.virtual_seconds

    @property
    def cache_hit_rate(self) -> float:
        hits = self.cache_dispositions.get("HIT", 0)
        misses = self.cache_dispositions.get("MISS", 0)
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def summary_text(self) -> str:
        """A deterministic multi-line summary (golden-file comparable)."""
        lines = [
            f"users: {self.users}",
            f"requests: {self.requests}",
            "statuses: " + " ".join(
                f"{status}={count}"
                for status, count in sorted(self.status_counts.items())
            ),
            "cache: " + " ".join(
                f"{tag}={count}"
                for tag, count in sorted(self.cache_dispositions.items())
            ),
            f"cache_hit_rate: {self.cache_hit_rate:.4f}",
            f"throttled_retries: {self.throttled_retries}",
            f"gave_up_throttled: {self.gave_up_throttled}",
            f"virtual_seconds: {self.virtual_seconds:.6f}",
            f"virtual_rps: {self.virtual_rps:.3f}",
            f"latency_p50: {self.p50:.6f}",
            f"latency_p99: {self.p99:.6f}",
            f"latency_mean: {self.mean_latency:.6f}",
            "histogram: " + " ".join(str(n) for n in self.histogram),
            "server_cache: " + " ".join(
                f"{key}={value}"
                for key, value in sorted(self.cache_stats.items())
            ),
            "server_ratelimit: " + " ".join(
                f"{key}={value}"
                for key, value in sorted(self.ratelimit_stats.items())
            ),
        ]
        return "\n".join(lines)


class LoadGenerator:
    """Replays a seeded request schedule against a mounted ServeApp.

    Args:
        transport: the loopback wire the app is registered on.
        app: the serve app (for its host, counters, and id spaces).
        n_users: simulated client population (client ids ``u0..uN-1``).
        n_requests: total requests to issue.
        seed: RNG seed; same seed => bit-identical run.
        mean_gap: mean virtual think time between requests (seconds);
            drawn from an exponential, so arrivals are Poisson-ish but
            fully deterministic given the seed.
        keep_log: record one (client, url, status, disposition, elapsed)
            tuple per request — the determinism tests compare these;
            benchmarks at 10^6 users switch it off.
    """

    def __init__(
        self,
        transport: LoopbackTransport,
        app: ServeApp,
        n_users: int,
        n_requests: int,
        seed: int = 0,
        mean_gap: float = 0.01,
        keep_log: bool = False,
    ) -> None:
        if n_users < 1:
            raise ValueError("n_users must be >= 1")
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        self._transport = transport
        self._app = app
        self._clock = transport.clock
        self.n_users = int(n_users)
        self.n_requests = int(n_requests)
        self.seed = int(seed)
        self.mean_gap = float(mean_gap)
        self.keep_log = bool(keep_log)
        corpus = app._corpus
        self._url_ids = list(corpus.urls)
        self._usernames = list(corpus.users)
        self._url_strings = [u.url for u in corpus.urls.values()]
        self._base = f"https://{app.host}"
        if not self._url_ids or not self._usernames:
            raise ValueError("corpus has no urls or no users to serve")

    # ------------------------------------------------------------------
    # Schedule pre-sampling.
    # ------------------------------------------------------------------

    def _schedule(self) -> dict[str, list]:
        """Pre-sample every random choice the run will make, in order.

        Each draw comes back as a list of Python scalars: the run reads
        every element once, and indexing a numpy array per request costs
        more than converting the whole array once.
        """
        rng = np.random.default_rng(self.seed)
        n = self.n_requests
        # Power-law user activity: same family as the platform's
        # comment-activity calibration (pareto(alpha=0.8) + 0.08).
        user_w = rng.pareto(0.8, self.n_users) + 0.08
        user_cdf = np.cumsum(user_w)
        user_cdf /= user_cdf[-1]
        users = _inverse_cdf(user_cdf, rng.random(n))
        # Power-law URL popularity: the urlgen popularity draw
        # (pareto(1.1) + 0.2), over the corpus's real URL id space.
        url_w = rng.pareto(1.1, len(self._url_ids)) + 0.2
        url_cdf = np.cumsum(url_w)
        url_cdf /= url_cdf[-1]
        urls = _inverse_cdf(url_cdf, rng.random(n))
        # Uniform username picks (user pages are long-tail by nature).
        names = rng.integers(0, len(self._usernames), n)
        # Endpoint mix.
        mix_cdf = np.cumsum([w for _, w in ENDPOINT_MIX])
        mix_cdf /= mix_cdf[-1]
        endpoints = np.searchsorted(mix_cdf, rng.random(n), side="right")
        # Deliberate 404 probes.
        misses = rng.random(n) < MISS_PROBABILITY
        # Think time between requests.
        gaps = rng.exponential(self.mean_gap, n)
        return {
            "users": users.tolist(),
            "urls": urls.tolist(),
            "names": names.tolist(),
            "endpoints": endpoints.tolist(),
            "misses": misses.tolist(),
            "gaps": gaps.tolist(),
        }

    def _request_url(
        self, tag: str, url_pick: int, name_pick: int, miss: bool, index: int
    ) -> str:
        base = self._base
        cid = (
            f"missing-{index}" if miss
            else self._url_ids[url_pick % len(self._url_ids)]
        )
        name = (
            f"ghost-{index}" if miss
            else self._usernames[name_pick % len(self._usernames)]
        )
        if tag == "thread":
            return f"{base}/api/thread/{cid}"
        if tag == "user":
            return f"{base}/api/user/{name}"
        if tag == "summary_url":
            return f"{base}/api/summary/url/{cid}"
        if tag == "summary_user":
            return f"{base}/api/summary/user/{name}"
        if tag == "url_lookup":
            target = (
                f"https://nowhere.example/{index}" if miss
                else self._url_strings[url_pick % len(self._url_strings)]
            )
            return url_with_params(f"{base}/api/url", {"url": target})
        if tag == "core":
            return f"{base}/api/core"
        return f"{base}/api/core/{name}"

    # ------------------------------------------------------------------
    # The run.
    # ------------------------------------------------------------------

    def run(self) -> LoadReport:
        """Issue the full schedule; returns the deterministic report."""
        schedule = self._schedule()
        report = LoadReport(users=self.n_users, requests=self.n_requests)
        log: list[tuple] | None = [] if self.keep_log else None
        latencies: list[float] = []
        edges = HISTOGRAM_EDGES
        histogram = [0] * (len(edges) + 1)
        status_counts = report.status_counts
        dispositions = report.cache_dispositions
        sleep = self._clock.sleep
        send = self._send
        request_url = self._request_url
        start = self._clock.now()
        tags = [tag for tag, _ in ENDPOINT_MIX]
        last_tag = len(tags) - 1
        for i, (gap, endpoint, url_pick, name_pick, miss, user) in enumerate(
            zip(schedule["gaps"], schedule["endpoints"], schedule["urls"],
                schedule["names"], schedule["misses"], schedule["users"])
        ):
            if gap > 0:
                sleep(gap)
            tag = tags[min(endpoint, last_tag)]
            url = request_url(tag, url_pick, name_pick, miss, i)
            client = f"u{user}"
            response = send(url, client)
            status = response.status
            if status == 429:
                # Honour the advertised wait once; the ulp-safe
                # wait_time contract makes this retry sufficient.
                report.throttled_retries += 1
                retry_after = response.headers.get("Retry-After")
                wait = float(retry_after) if retry_after else self.mean_gap
                sleep(wait)
                response = send(url, client)
                status = response.status
                if status == 429:
                    report.gave_up_throttled += 1
            status_counts[status] = status_counts.get(status, 0) + 1
            disposition = response.headers.get("X-Cache", "NONE")
            dispositions[disposition] = dispositions.get(disposition, 0) + 1
            elapsed = response.elapsed
            latencies.append(elapsed)
            # The count of edges strictly below ``elapsed``.
            histogram[bisect_left(edges, elapsed)] += 1
            if log is not None:
                log.append((client, url, status, disposition, elapsed))
        report.virtual_seconds = self._clock.now() - start
        ordered = np.sort(np.asarray(latencies, dtype=float), kind="stable")
        report.p50 = _ecdf_quantile(ordered, 0.5)
        report.p99 = _ecdf_quantile(ordered, 0.99)
        report.mean_latency = float(ordered.mean()) if ordered.size else 0.0
        report.histogram = histogram
        report.cache_stats = self._app.cache.stats()
        report.ratelimit_stats = {
            "clients": len(self._app.limiter),
            "created": self._app.limiter.created,
            "evictions": self._app.limiter.evictions,
            "throttled": self._app.throttled,
        }
        report.request_log = log
        return report

    def _send(self, url: str, client: str):
        request = Request("GET", url)
        # A fresh request has no headers to replace.
        headers = request.headers
        headers.add("X-Client-Id", client)
        headers.add("Accept", "application/json")
        return self._transport.send(request)
