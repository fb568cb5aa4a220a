"""Tests for the loopback transport, router, and HTTP client."""

import pytest

from repro.net import (
    App,
    ConnectError,
    FaultPlan,
    HttpClient,
    LoopbackTransport,
    Response,
    TimeoutError,
    TooManyRedirects,
    VirtualClock,
)


def _make_app() -> App:
    app = App("test.example")

    @app.get("/hello/{name}")
    def hello(request, params):
        return Response.html(f"<p>hi {params['name']}</p>")

    @app.get("/echo")
    def echo(request, params):
        return Response.json_response(request.query)

    @app.get("/chain/{n}")
    def chain(request, params):
        n = int(params["n"])
        if n <= 0:
            return Response.html("<p>done</p>")
        return Response.redirect(f"/chain/{n - 1}")

    @app.get("/cookie")
    def cookie(request, params):
        response = Response.html("<p>set</p>")
        response.headers.add("Set-Cookie", "sid=abc; Path=/")
        return response

    @app.get("/whoami")
    def whoami(request, params):
        return Response.html(f"<p>{request.cookie_header() or 'anon'}</p>")

    @app.get("/files/{path...}")
    def files(request, params):
        return Response.html(f"<p>{params['path']}</p>")

    @app.get("/jump")
    def jump(request, params):
        return Response.redirect("/landing")

    @app.post("/submit")
    def submit(request, params):
        return Response.redirect("/landing")

    @app.get("/landing")
    def landing(request, params):
        return Response.json_response(
            {"method": request.method, "headers": dict(request.headers)}
        )

    return app


@pytest.fixture()
def stack():
    clock = VirtualClock()
    transport = LoopbackTransport(clock=clock, latency=0.01)
    transport.register(_make_app())
    return clock, transport, HttpClient(transport)


class TestRouting:
    def test_path_params(self, stack):
        _, _, client = stack
        r = client.get("https://test.example/hello/world")
        assert r.status == 200 and "hi world" in r.text

    def test_query_params(self, stack):
        _, _, client = stack
        r = client.get("https://test.example/echo", params={"a": 1, "b": "x"})
        assert r.json() == {"a": "1", "b": "x"}

    def test_greedy_segment(self, stack):
        _, _, client = stack
        r = client.get("https://test.example/files/a/b/c.txt")
        assert "a/b/c.txt" in r.text

    def test_404_for_unknown_route(self, stack):
        _, _, client = stack
        assert client.get("https://test.example/nope").status == 404

    def test_unknown_host_raises(self, stack):
        _, _, client = stack
        with pytest.raises(ConnectError):
            client.get("https://unknown.example/")


class TestRedirects:
    def test_follows_chain(self, stack):
        _, _, client = stack
        r = client.get("https://test.example/chain/3")
        assert r.status == 200 and "done" in r.text
        assert client.stats.redirects_followed == 3

    def test_redirect_limit(self, stack):
        _, _, client = stack
        with pytest.raises(TooManyRedirects):
            client.get("https://test.example/chain/10")

    def test_no_follow_option(self, stack):
        _, _, client = stack
        r = client.get("https://test.example/chain/1", follow_redirects=False)
        assert r.status == 302

    def test_redirect_does_not_replay_caller_headers(self, stack):
        """Regression: the redirect-followed request must be a fresh GET —
        replaying the caller's request-specific headers (conditional
        headers, a POST's Content-Type) leaks them onto the new URL."""
        _, _, client = stack
        r = client.get(
            "https://test.example/jump",
            headers={"If-None-Match": '"etag"', "X-Caller": "secret"},
        )
        landed = r.json()["headers"]
        assert "If-None-Match" not in landed
        assert "X-Caller" not in landed
        assert "User-Agent" in landed          # defaults are rebuilt

    def test_post_redirect_becomes_get(self, stack):
        _, _, client = stack
        r = client.post(
            "https://test.example/submit",
            body=b"payload",
            headers={"Content-Type": "application/json"},
        )
        landed = r.json()
        assert landed["method"] == "GET"
        assert "Content-Type" not in landed["headers"]

    def test_redirect_still_sends_cookies(self, stack):
        """The rebuilt request must keep jar cookies (sessions span
        redirects) while dropping the caller's one-off headers."""
        _, _, client = stack
        client.get("https://test.example/cookie")
        r = client.get(
            "https://test.example/jump", headers={"X-Caller": "secret"}
        )
        landed = r.json()["headers"]
        assert landed.get("Cookie") == "sid=abc"
        assert "X-Caller" not in landed


class TestCookiesIntegration:
    def test_cookie_round_trip(self, stack):
        _, _, client = stack
        client.get("https://test.example/cookie")
        r = client.get("https://test.example/whoami")
        assert "sid=abc" in r.text


class TestClockAndLatency:
    def test_latency_charged(self, stack):
        clock, _, client = stack
        start = clock.now()
        client.get("https://test.example/hello/a")
        assert clock.now() - start == pytest.approx(0.01)

    def test_elapsed_recorded(self, stack):
        _, _, client = stack
        r = client.get("https://test.example/hello/a")
        assert r.elapsed == pytest.approx(0.01)


class TestFaultInjection:
    def _faulty_client(self, timeout_rate=0.0, error_rate=0.0, retries=3):
        clock = VirtualClock()
        transport = LoopbackTransport(
            clock=clock,
            faults=FaultPlan(
                timeout_rate=timeout_rate,
                error_rate=error_rate,
                max_faults_per_url=2,
            ),
            seed=1,
        )
        transport.register(_make_app())
        return HttpClient(transport, max_retries=retries, backoff=0.1)

    def test_timeouts_retried_to_success(self):
        client = self._faulty_client(timeout_rate=0.9)
        r = client.get("https://test.example/hello/x")
        assert r.status == 200
        assert client.stats.timeouts >= 1

    def test_503_retried_to_success(self):
        client = self._faulty_client(error_rate=0.9)
        r = client.get("https://test.example/hello/y")
        assert r.status == 200
        assert client.stats.retries >= 1

    def test_exhausted_retries_raise_timeout(self):
        clock = VirtualClock()
        transport = LoopbackTransport(
            clock=clock,
            faults=FaultPlan(timeout_rate=1.0, max_faults_per_url=100),
            seed=1,
        )
        transport.register(_make_app())
        client = HttpClient(transport, max_retries=2, backoff=0.01)
        with pytest.raises(TimeoutError):
            client.get("https://test.example/hello/z")

    def test_get_or_none_swallows(self):
        clock = VirtualClock()
        transport = LoopbackTransport(
            clock=clock,
            faults=FaultPlan(timeout_rate=1.0, max_faults_per_url=100),
            seed=2,
        )
        transport.register(_make_app())
        client = HttpClient(transport, max_retries=1, backoff=0.01)
        assert client.get_or_none("https://test.example/hello/q") is None

    def test_fault_budget_guarantees_progress(self):
        # max_faults_per_url=2 means the third request for a URL always
        # succeeds, so crawls terminate.
        client = self._faulty_client(timeout_rate=1.0, retries=5)
        assert client.get("https://test.example/hello/r").status == 200


class TestStats:
    def test_counters(self, stack):
        _, transport, client = stack
        client.get("https://test.example/hello/a")
        client.get("https://test.example/nope")
        assert client.stats.requests == 2
        assert client.stats.status_counts[200] == 1
        assert client.stats.status_counts[404] == 1
        assert client.stats.bytes_received > 0
        assert transport.requests_served == 2


class TestRetryAfterHonoured:
    def test_retry_after_header_waited(self):
        clock = VirtualClock()
        app = App("throttled.example")
        state = {"calls": 0}

        @app.get("/limited")
        def limited(request, params):
            state["calls"] += 1
            if state["calls"] == 1:
                response = Response(status=429)
                response.headers.set("Retry-After", "120")
                return response
            return Response.html("<p>ok</p>")

        transport = LoopbackTransport(clock=clock, latency=0.0)
        transport.register(app)
        client = HttpClient(transport, max_retries=2, backoff=0.1)
        start = clock.now()
        response = client.get("https://throttled.example/limited")
        assert response.status == 200
        assert clock.now() - start >= 120.0

    def test_rate_limit_reset_header_waited(self):
        clock = VirtualClock()
        app = App("window.example")
        state = {"calls": 0}

        @app.get("/limited")
        def limited(request, params):
            state["calls"] += 1
            if state["calls"] == 1:
                response = Response(status=429)
                response.headers.set(
                    "X-RateLimit-Reset", f"{clock.now() + 300:.0f}"
                )
                return response
            return Response.html("<p>ok</p>")

        transport = LoopbackTransport(clock=clock, latency=0.0)
        transport.register(app)
        client = HttpClient(transport, max_retries=2, backoff=0.1)
        start = clock.now()
        assert client.get("https://window.example/limited").status == 200
        assert clock.now() - start >= 299.0


class TestRetryAfterDegradesToBackoff:
    """Unusable ``Retry-After`` values — the HTTP-date form, ``inf``
    (which would wedge the virtual clock forever), negatives — must
    degrade to exponential backoff, never raise or sleep unboundedly."""

    def _throttling_app(self, host: str, retry_after: str) -> tuple:
        app = App(host)
        state = {"calls": 0}

        @app.get("/limited")
        def limited(request, params):
            state["calls"] += 1
            if state["calls"] == 1:
                response = Response(status=429)
                response.headers.set("Retry-After", retry_after)
                return response
            return Response.html("<p>ok</p>")

        return app, state

    @pytest.mark.parametrize(
        "retry_after",
        ["Fri, 31 Dec 1999 23:59:59 GMT", "inf", "nan", "-5", "1e400"],
    )
    def test_degrades_to_backoff(self, retry_after):
        clock = VirtualClock()
        app, _ = self._throttling_app("degrade.example", retry_after)
        transport = LoopbackTransport(clock=clock, latency=0.0)
        transport.register(app)
        client = HttpClient(transport, max_retries=2, backoff=0.1)
        start = clock.now()
        response = client.get("https://degrade.example/limited")
        assert response.status == 200
        waited = clock.now() - start
        assert waited == pytest.approx(0.1)


class TestHooksResolvedAtRegister:
    """``send`` calls the origin's ``handle`` per request, so an origin
    needs only ``host`` and ``handle``, and class-level wrappers apply
    whether they are installed before or after registration."""

    def test_host_and_handle_are_enough(self):
        class Bare:
            host = "bare.example"

            def handle(self, request):
                return Response.html(f"<p>{request.path}</p>")

        transport = LoopbackTransport(clock=VirtualClock(), latency=0.0)
        transport.register(Bare())
        response = HttpClient(transport).get("https://bare.example/a/b")
        assert response.status == 200
        assert response.text == "<p>/a/b</p>"
        assert response.url == "https://bare.example/a/b"

    def test_class_level_wrapper_installed_after_register(self, monkeypatch):
        class Origin(App):
            pass

        app = Origin("late.example")

        @app.get("/page")
        def page(request, params):
            return Response.html("<p>page</p>")

        transport = LoopbackTransport(clock=VirtualClock(), latency=0.0)
        transport.register(app)
        calls = []

        def wrapped_render(self, request):
            calls.append(request.url)
            return App.render(self, request)

        monkeypatch.setattr(Origin, "render", wrapped_render)
        client = HttpClient(transport)
        for _ in range(3):
            assert client.get("https://late.example/page").status == 200
        assert calls == ["https://late.example/page"] * 3

    def test_class_level_wrapper_installed_before_register(self, monkeypatch):
        calls = []

        class Origin(App):
            pass

        def wrapped_render(self, request):
            calls.append(request.url)
            return App.render(self, request)

        monkeypatch.setattr(Origin, "render", wrapped_render)
        app = Origin("wrapped.example")

        @app.get("/x")
        def x(request, params):
            return Response.html("<p>x</p>")

        transport = LoopbackTransport(clock=VirtualClock(), latency=0.0)
        transport.register(app)
        assert HttpClient(transport).get("https://wrapped.example/x").status == 200
        assert calls == ["https://wrapped.example/x"]
