"""Tests for rate limiting primitives."""

import pytest

from repro.net.clock import VirtualClock
from repro.net.http import Headers, Response, parse_delay_seconds
from repro.net.ratelimit import HeaderRateLimiter, KeyedRateLimiter, TokenBucket


class TestTokenBucket:
    def test_burst_up_to_capacity(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=5, clock=clock)
        assert all(bucket.try_acquire() for _ in range(5))
        assert not bucket.try_acquire()

    def test_refill_over_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=2.0, capacity=2, clock=clock)
        bucket.try_acquire(); bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.sleep(0.5)   # refills one token
        assert bucket.try_acquire()

    def test_acquire_blocks_on_clock(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=1, clock=clock)
        bucket.acquire()
        waited = bucket.acquire()
        assert waited == pytest.approx(1.0)
        assert clock.total_slept == pytest.approx(1.0)

    def test_wait_time_zero_when_available(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1.0, capacity=3, clock=clock)
        assert bucket.wait_time() == 0.0

    def test_never_exceeds_capacity(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=100.0, capacity=2, clock=clock)
        clock.sleep(60)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            TokenBucket(rate=0, capacity=1, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, capacity=0, clock=clock)


class TestTokenBucketFloatDrift:
    """Regression: the post-sleep refill computes ``elapsed * rate`` in
    floats; when that rounds just below the deficit, the balance used to
    go (and stay) negative, silently over-throttling every later acquire.
    ``acquire`` must clamp the balance at zero."""

    def test_balance_never_negative_under_fractional_load(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=0.1, capacity=1.0, clock=clock)
        for _ in range(200):
            bucket.acquire(0.1)
            assert bucket._tokens >= 0.0

    def test_adversarial_token_sizes(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=0.07, capacity=0.7, clock=clock)
        for tokens in (0.7, 0.07, 0.07 * 3, 0.49, 0.07 * 7, 0.63):
            bucket.acquire(tokens)
            assert bucket._tokens >= 0.0

    def test_no_cumulative_over_throttling(self):
        clock = VirtualClock()
        bucket = TokenBucket(rate=1 / 3, capacity=1.0, clock=clock)
        bucket.acquire()                     # burst token
        waits = [bucket.acquire() for _ in range(50)]
        # Steady state is one refill period per acquire; a drifting
        # negative balance would make the waits creep past it instead.
        assert max(waits) <= 3.0 + 1e-9


class TestWaitTimeSufficient:
    """Regression: ``wait_time`` used to return ``deficit / rate``
    verbatim; at adversarial rate/capacity values the quotient rounds
    one ulp short of the deficit when multiplied back by the rate, so a
    429 ``Retry-After`` computed from it bounced the well-behaved client
    that honoured it.  The advertised wait must always be sufficient."""

    # (rate, tokens) pairs where ``(tokens / rate) * rate < tokens``:
    # the naive quotient refills one ulp short of the request.
    ADVERSARIAL = [
        (0.3, 0.9),
        (0.11, 0.49),
    ]

    @pytest.mark.parametrize("rate,tokens", ADVERSARIAL)
    def test_sleeping_advertised_wait_suffices(self, rate, tokens):
        clock = VirtualClock()
        bucket = TokenBucket(rate=rate, capacity=tokens, clock=clock)
        assert bucket.try_acquire(tokens)   # drain the burst entirely
        wait = bucket.wait_time(tokens)
        assert wait > 0
        clock.sleep(wait)
        assert bucket.try_acquire(tokens), (
            f"advertised wait {wait!r} was insufficient "
            f"at rate={rate} tokens={tokens}"
        )

    def test_wait_time_still_tight(self):
        # The fix extends by ulps, not by a visible epsilon: the wait
        # must stay within a hair of the ideal quotient.
        clock = VirtualClock()
        bucket = TokenBucket(rate=1 / 3, capacity=1.0, clock=clock)
        bucket.try_acquire(1.0)
        assert bucket.wait_time(1.0) == pytest.approx(3.0, rel=1e-12)


class TestKeyedRateLimiter:
    def test_per_key_isolation(self):
        """The paper's observation: a per-URL limit never binds a
        breadth-first crawl that touches each URL once."""
        clock = VirtualClock()
        limiter = KeyedRateLimiter(rate=10 / 60, capacity=10, clock=clock)
        # 100 distinct URLs in quick succession: all allowed.
        assert all(limiter.try_acquire(f"url-{i}") for i in range(100))

    def test_same_key_exhausts(self):
        clock = VirtualClock()
        limiter = KeyedRateLimiter(rate=10 / 60, capacity=10, clock=clock)
        allowed = sum(limiter.try_acquire("same") for _ in range(15))
        assert allowed == 10

    def test_wait_time_positive_when_exhausted(self):
        clock = VirtualClock()
        limiter = KeyedRateLimiter(rate=1.0, capacity=1, clock=clock)
        limiter.try_acquire("k")
        assert limiter.wait_time("k") > 0


class TestKeyedRateLimiterHitSweep:
    """Regression: eviction used to run only on bucket *creation*, so a
    table pushed past ``max_keys`` by simultaneously-indebted keys stayed
    oversized until a brand-new key arrived — under a steady serving
    workload over a fixed URL set, never.  Hits must sweep too."""

    def test_table_shrinks_under_fixed_key_workload(self):
        clock = VirtualClock()
        limiter = KeyedRateLimiter(rate=1.0, capacity=1, clock=clock, max_keys=8)
        # 24 keys all take their burst token at once: none is full, so
        # creation-time eviction finds no victims and the table is 3x
        # oversized.
        for i in range(24):
            assert limiter.try_acquire(f"key-{i}")
        assert len(limiter) == 24
        # Every bucket refills; from here on only *existing* keys are
        # touched, so pre-fix the table would stay at 24 forever.
        clock.sleep(2.0)
        for _ in range(2 * KeyedRateLimiter.HIT_SWEEP_INTERVAL):
            limiter.try_acquire("key-0")
            clock.sleep(1.0)
        assert len(limiter) <= limiter.DEFAULT_MAX_KEYS
        assert len(limiter) <= 8, (
            f"table still holds {len(limiter)} buckets under a "
            "fixed-key workload"
        )
        assert limiter.evictions >= 16

    def test_hit_sweep_never_evicts_the_hit_key(self):
        clock = VirtualClock()
        limiter = KeyedRateLimiter(rate=1.0, capacity=1, clock=clock, max_keys=4)
        for i in range(12):
            limiter.try_acquire(f"key-{i}")
        clock.sleep(2.0)
        # Hammer one key fast enough that *it* is the only indebted
        # bucket at each sweep point; it must survive every sweep.
        for _ in range(4 * KeyedRateLimiter.HIT_SWEEP_INTERVAL):
            bucket = limiter.bucket("key-0")
            assert bucket is limiter._buckets.get("key-0")
            bucket.try_acquire()

    def test_sweep_points_deterministic(self):
        def run() -> tuple[int, int]:
            clock = VirtualClock()
            limiter = KeyedRateLimiter(
                rate=1.0, capacity=1, clock=clock, max_keys=4
            )
            for i in range(16):
                limiter.try_acquire(f"key-{i}")
            clock.sleep(2.0)
            for n in range(3 * KeyedRateLimiter.HIT_SWEEP_INTERVAL):
                limiter.try_acquire(f"key-{n % 16}")
                clock.sleep(1.0)
            return len(limiter), limiter.evictions

        assert run() == run()


class TestHeaderRateLimiter:
    def _response(self, remaining: int, reset_at: float) -> Response:
        headers = Headers({
            "X-RateLimit-Remaining": str(remaining),
            "X-RateLimit-Reset": f"{reset_at:.0f}",
        })
        return Response(status=200, headers=headers)

    def test_floor_interval_enforced(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=1.0)
        limiter.before_request()
        waited = limiter.before_request()
        assert waited == pytest.approx(1.0)

    def test_sleeps_to_reset_when_exhausted(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=0.0)
        limiter.before_request()
        reset_at = clock.now() + 30.0
        limiter.after_response(self._response(remaining=0, reset_at=reset_at))
        limiter.before_request()
        assert clock.now() >= reset_at

    def test_no_wait_with_budget_remaining(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=0.0)
        limiter.before_request()
        limiter.after_response(self._response(remaining=100, reset_at=clock.now() + 300))
        assert limiter.before_request() == 0.0

    def test_malformed_headers_tolerated(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock)
        response = Response(status=200, headers=Headers({
            "X-RateLimit-Remaining": "garbage",
            "X-RateLimit-Reset": "also-garbage",
        }))
        limiter.after_response(response)   # must not raise
        limiter.before_request()

    def test_total_waited_accumulates(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=2.0)
        limiter.before_request()
        limiter.before_request()
        limiter.before_request()
        assert limiter.total_waited == pytest.approx(4.0)


class TestHeaderRateLimiterStaleReset:
    """Regression: ``before_request`` used to clear only ``_remaining``
    after an exhaustion wait, leaving ``_reset_at`` pointing at a
    now-past timestamp.  A later response reporting ``Remaining: 0``
    *without* a fresh reset header then compared against the stale
    timestamp, waited zero, and hammered the server."""

    def _exhausted_no_reset(self) -> Response:
        return Response(
            status=429,
            headers=Headers({"X-RateLimit-Remaining": "0"}),
        )

    def test_exhaustion_without_reset_backs_off_by_floor(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=1.0)
        limiter.before_request()
        # First window: exhausted with a proper reset 30s out.
        reset_at = clock.now() + 30.0
        limiter.after_response(Response(status=200, headers=Headers({
            "X-RateLimit-Remaining": "0",
            "X-RateLimit-Reset": f"{reset_at:.0f}",
        })))
        limiter.before_request()
        assert clock.now() >= reset_at
        # Second window: the server reports exhaustion again but never
        # refreshes the reset header.  A natural gap longer than the
        # floor means pacing alone waits zero — only the exhaustion
        # fallback can make this back off.
        limiter.after_response(self._exhausted_no_reset())
        clock.sleep(5.0)
        waited = limiter.before_request()
        assert waited == pytest.approx(1.0), (
            f"waited {waited!r} — stale reset timestamp let an "
            "exhausted window through with zero backoff"
        )

    def test_out_of_date_reset_header_backs_off_by_floor(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=2.0)
        clock.sleep(100.0)
        limiter.before_request()
        # The server advertises exhaustion with a reset already in the
        # past (clock skew, or a cached response).
        limiter.after_response(Response(status=429, headers=Headers({
            "X-RateLimit-Remaining": "0",
            "X-RateLimit-Reset": f"{clock.now() - 50.0:.0f}",
        })))
        clock.sleep(10.0)
        waited = limiter.before_request()
        assert waited == pytest.approx(2.0)

    def test_reset_state_cleared_after_consumption(self):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=0.0)
        limiter.before_request()
        reset_at = clock.now() + 10.0
        limiter.after_response(Response(status=200, headers=Headers({
            "X-RateLimit-Remaining": "0",
            "X-RateLimit-Reset": f"{reset_at:.0f}",
        })))
        limiter.before_request()
        assert limiter._remaining is None
        assert limiter._reset_at is None


class TestHeaderRateLimiterUnusableReset:
    """Regression: ``after_response`` parsed ``X-RateLimit-Reset`` with a
    bare ``float()``, so ``Remaining: 0`` with ``Reset: inf`` made the
    next ``before_request()`` sleep the virtual clock to infinity.  The
    reset now goes through the same finite, non-negative parse as the
    client's ``Retry-After``: an unusable value is dropped and the
    exhausted window waits the floor interval."""

    @pytest.mark.parametrize(
        "reset", ["inf", "nan", "-1", "Fri, 31 Dec 1999 23:59:59 GMT"]
    )
    def test_unusable_reset_backs_off_by_floor(self, reset):
        clock = VirtualClock()
        limiter = HeaderRateLimiter(clock, floor_interval=2.0)
        limiter.before_request()
        limiter.after_response(Response(status=429, headers=Headers({
            "X-RateLimit-Remaining": "0",
            "X-RateLimit-Reset": reset,
        })))
        assert limiter._reset_at is None
        clock.sleep(10.0)
        start = clock.now()
        waited = limiter.before_request()
        assert waited == pytest.approx(2.0)
        assert clock.now() - start == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "value", ["inf", "-inf", "nan", "-1", "1e400", "Fri, 31 Dec 1999 23:59:59 GMT", ""]
    )
    def test_shared_parse_rejects(self, value):
        assert parse_delay_seconds(value) is None

    @pytest.mark.parametrize("value, expected", [("0", 0.0), ("30", 30.0), ("1.5", 1.5)])
    def test_shared_parse_accepts(self, value, expected):
        assert parse_delay_seconds(value) == expected
