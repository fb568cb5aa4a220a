"""Rate limiting, client- and server-side.

Two observations in the paper drive this module.  First (§3.2): Dissenter
enforced 10 requests/minute *per URL*, which never binds a breadth-first
crawl that requests each URL once — the per-key vs global distinction is
our ablation A1.  Second (§3.4): "Gab exposes its rate-limiting in the HTTP
response headers by including the number of remaining requests, as well as
the time at which the request limit will be refreshed", and the authors
wait for the refresh before continuing — implemented here as
:class:`HeaderRateLimiter`.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from repro.net.clock import Clock
from repro.net.http import Response, parse_delay_seconds

__all__ = ["HeaderRateLimiter", "KeyedRateLimiter", "TokenBucket"]


class TokenBucket:
    """Classic token bucket.

    Args:
        rate: tokens added per second.
        capacity: bucket size (burst allowance).
        clock: time source.
    """

    def __init__(self, rate: float, capacity: float, clock: Clock) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._rate = rate
        self._capacity = capacity
        self._clock = clock
        self._tokens = capacity
        self._updated = clock.now()

    def _refill(self) -> None:
        now = self._clock.now()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
            self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take tokens if available; never blocks."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def wait_time(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` would be available (0 if now).

        The advertised wait is *sufficient*: a caller that sleeps exactly
        this long is guaranteed the next ``try_acquire(tokens)`` succeeds.
        ``deficit / rate`` alone can round one ulp short of the deficit
        when multiplied back by the rate — a server handing the quotient
        to a 429 ``Retry-After`` would then bounce the well-behaved
        client that honoured it, so the wait is extended ulp-by-ulp
        until the refill it promises actually covers the deficit.
        """
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        now = self._updated   # _refill just synced this to clock.now()
        wait = deficit / self._rate
        # Replay the refill a sleeper will actually perform: it runs at
        # absolute time ``now + wait``, whose float granularity (ulps of
        # a ~1e9 epoch timestamp) dwarfs ulps of ``wait`` itself.  Step
        # the *arrival* timestamp up until the replayed refill covers
        # the deficit; each step is one representable clock instant, so
        # this converges in a couple of iterations.
        while True:
            arrival = now + wait
            elapsed = arrival - now
            if self._tokens + elapsed * self._rate >= tokens:
                return wait
            wait = math.nextafter(arrival, math.inf) - now

    def acquire(self, tokens: float = 1.0) -> float:
        """Block (on the clock) until tokens are available.

        Returns the seconds waited.
        """
        waited = self.wait_time(tokens)
        if waited > 0:
            self._clock.sleep(waited)
            self._refill()
        # The post-sleep refill computes elapsed * rate in floats; when
        # that rounds just below the deficit the balance would go (and
        # stay) negative, silently over-throttling every later acquire.
        self._tokens = max(0.0, self._tokens - tokens)
        return waited

    def is_full(self) -> bool:
        """True when the bucket has refilled to capacity (quiescent)."""
        self._refill()
        return self._tokens >= self._capacity


class KeyedRateLimiter:
    """A family of token buckets indexed by key.

    With ``key_fn = lambda req: req.url`` this reproduces Dissenter's
    per-URL limit; with a constant key it is a global limit.  Used on the
    *server* side of the simulation (middleware returning 429s) and in the
    A1 ablation.

    Memory is bounded: a crawl keyed per URL touches 588k distinct keys,
    but a bucket that has refilled to capacity is indistinguishable from
    a fresh one, so when the table exceeds ``max_keys`` the least recently
    used *full* buckets are evicted (a re-created bucket starts at
    capacity — bit-identical behavior).  Buckets still paying off debt
    are never evicted, so the table can only exceed ``max_keys`` while
    that many keys are simultaneously mid-window.
    """

    DEFAULT_MAX_KEYS = 4096

    #: Hits between eviction sweeps while the table is oversized.  The
    #: sweep scans every bucket (O(n)), so running it on a counter keeps
    #: the amortized per-hit cost constant; the counter (not the clock,
    #: not hash order) decides when, so sweep points are deterministic.
    HIT_SWEEP_INTERVAL = 64

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Clock,
        max_keys: int = DEFAULT_MAX_KEYS,
    ) -> None:
        if max_keys < 1:
            raise ValueError("max_keys must be >= 1")
        self._rate = rate
        self._capacity = capacity
        self._clock = clock
        self._max_keys = max_keys
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._hits_since_sweep = 0
        self.created = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._buckets)

    def _evict(self, protect: str) -> None:
        over = len(self._buckets) - self._max_keys
        if over <= 0:
            return
        # The just-created bucket starts full: without `protect` it would
        # be its own first eviction victim, discarding the token its
        # caller is about to take.  Stop scanning as soon as enough
        # victims are found — the table sits at most a few entries over
        # ``max_keys`` in steady state, so sweeping the whole dict here
        # made every new key an O(max_keys) operation (quadratic over a
        # crawl that touches millions of distinct URLs).
        victims = []
        for k, b in self._buckets.items():
            if k != protect and b.is_full():
                victims.append(k)
                if len(victims) >= over:
                    break
        for key in victims:
            del self._buckets[key]
            self.evictions += 1

    def bucket(self, key: str) -> TokenBucket:
        existing = self._buckets.get(key)
        if existing is None:
            existing = TokenBucket(self._rate, self._capacity, self._clock)
            self._buckets[key] = existing
            self.created += 1
            self._evict(protect=key)
        else:
            self._buckets.move_to_end(key)
            # A table pushed past max_keys by simultaneously-indebted
            # keys must shrink back once they refill, even when no new
            # key ever arrives (a server limiting a fixed URL set) —
            # sweep on hits too, amortized over HIT_SWEEP_INTERVAL.
            if len(self._buckets) > self._max_keys:
                self._hits_since_sweep += 1
                if self._hits_since_sweep >= self.HIT_SWEEP_INTERVAL:
                    self._hits_since_sweep = 0
                    self._evict(protect=key)
        return existing

    def try_acquire(self, key: str) -> bool:
        return self.bucket(key).try_acquire()

    def wait_time(self, key: str) -> float:
        return self.bucket(key).wait_time()


class HeaderRateLimiter:
    """Client-side limiter driven by X-RateLimit response headers.

    Mirrors the paper's Gab API etiquette: issue at most ``floor_interval``
    seconds apart, watch ``X-RateLimit-Remaining``, and when it hits zero
    sleep until ``X-RateLimit-Reset`` (an absolute timestamp) before
    issuing new requests.
    """

    REMAINING_HEADER = "X-RateLimit-Remaining"
    RESET_HEADER = "X-RateLimit-Reset"

    def __init__(self, clock: Clock, floor_interval: float = 1.0) -> None:
        if floor_interval < 0:
            raise ValueError("floor_interval must be >= 0")
        self._clock = clock
        self._floor = floor_interval
        self._last_request: float | None = None
        self._remaining: int | None = None
        self._reset_at: float | None = None
        self.total_waited = 0.0

    def before_request(self) -> float:
        """Wait as needed before the next request; returns seconds waited."""
        waited = 0.0
        now = self._clock.now()
        if self._remaining is not None and self._remaining <= 0:
            if self._reset_at is not None and self._reset_at > now:
                wait = self._reset_at - now
            else:
                # Remaining hit zero with no usable reset: either the
                # server sent none, or the recorded one has already
                # passed (a later response reported exhaustion without
                # refreshing it).  Waiting zero here would hammer the
                # server; back off by the floor interval instead.
                wait = self._floor
            if wait > 0:
                self._clock.sleep(wait)
                waited += wait
            # The window refreshed (or its reset was stale); forget
            # both halves so a past timestamp can never be compared
            # against a *future* exhaustion.
            self._remaining = None
            self._reset_at = None
        now = self._clock.now()
        if self._last_request is not None:
            since = now - self._last_request
            if since < self._floor:
                wait = self._floor - since
                self._clock.sleep(wait)
                waited += wait
        self._last_request = self._clock.now()
        self.total_waited += waited
        return waited

    def after_response(self, response: Response) -> None:
        """Ingest rate-limit headers from a response."""
        remaining = response.headers.get(self.REMAINING_HEADER)
        reset_at = response.headers.get(self.RESET_HEADER)
        if remaining is not None:
            try:
                self._remaining = int(remaining)
            except ValueError:
                self._remaining = None
        if reset_at is not None:
            # "inf" would make before_request() sleep forever; an
            # unusable reset is dropped, and an exhausted window then
            # waits the floor interval instead.
            self._reset_at = parse_delay_seconds(reset_at)
