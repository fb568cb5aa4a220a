"""Router unit tests (pattern compilation, dispatch, middleware, lifetime)."""

import gc
import weakref

import pytest

from repro.net.http import Request, Response
from repro.net.router import App, Route, _compile_pattern
from repro.platform import WorldConfig, build_world
from repro.platform.apps import build_origins
from tests.serve.conftest import build_synthetic_store, get, mount


class TestPatternCompilation:
    def test_literal(self):
        regex = _compile_pattern("/exact/path")
        assert regex.match("/exact/path")
        assert not regex.match("/exact/path/more")

    def test_single_segment_placeholder(self):
        regex = _compile_pattern("/user/{name}")
        assert regex.match("/user/alice").group("name") == "alice"
        assert not regex.match("/user/alice/extra")
        assert not regex.match("/user/")

    def test_multiple_placeholders(self):
        regex = _compile_pattern("/a/{x}/b/{y}")
        match = regex.match("/a/1/b/2")
        assert match.group("x") == "1" and match.group("y") == "2"

    def test_greedy_placeholder(self):
        regex = _compile_pattern("/files/{rest...}")
        assert regex.match("/files/a/b/c").group("rest") == "a/b/c"

    def test_regex_metacharacters_escaped(self):
        regex = _compile_pattern("/comments:analyze")
        assert regex.match("/comments:analyze")
        regex = _compile_pattern("/a.b")
        assert regex.match("/a.b")
        assert not regex.match("/aXb")


class TestRoute:
    def test_method_mismatch(self):
        route = Route(
            method="GET", pattern="/x", handler=lambda r, p: Response(200),
            regex=_compile_pattern("/x"),
        )
        assert route.match("POST", "/x") is None
        assert route.match("GET", "/x") == {}


class TestAppDispatch:
    def _app(self):
        app = App("Example.COM")
        calls = []

        @app.get("/first/{x}")
        def first(request, params):
            calls.append(("first", params))
            return Response.html("first")

        @app.get("/{anything}")
        def catch(request, params):
            calls.append(("catch", params))
            return Response.html("catch")

        def submit(request, params):
            return Response.html(request.body.decode())

        app.add_route("POST", "/submit", submit)

        return app, calls

    def test_host_lowercased(self):
        app, _ = self._app()
        assert app.host == "example.com"

    def test_first_matching_route_wins(self):
        app, calls = self._app()
        app.handle(Request("GET", "https://example.com/first/1"))
        assert calls[-1][0] == "first"
        app.handle(Request("GET", "https://example.com/other"))
        assert calls[-1][0] == "catch"

    def test_post_body_reaches_handler(self):
        app, _ = self._app()
        request = Request("POST", "https://example.com/submit")
        request.body = b"payload"
        assert app.handle(request).text == "payload"

    def test_unmatched_method_404(self):
        app, _ = self._app()
        response = app.handle(Request("POST", "https://example.com/first/1"))
        # POST /first/1 matches no POST route; the catch-all is GET-only.
        assert response.status == 404

    def test_response_url_stamped(self):
        app, _ = self._app()
        response = app.handle(Request("GET", "https://example.com/abc"))
        assert response.url == "https://example.com/abc"

    def test_middleware_short_circuits(self):
        app, calls = self._app()
        app.use(lambda request: Response(status=403, body=b"blocked")
                if "secret" in request.path else None)
        blocked = app.handle(Request("GET", "https://example.com/secret"))
        assert blocked.status == 403
        allowed = app.handle(Request("GET", "https://example.com/open"))
        assert allowed.status == 200
        assert calls[-1][0] == "catch"


class _Counter(App):
    """An app routing to its own methods, as every origin does."""

    def __init__(self) -> None:
        super().__init__("counter.test")
        self.hits = 0
        self.use(self._count)
        self.get("/n/{x}")(self._page)

    def _count(self, request):
        self.hits += 1
        return None

    def _page(self, request, params):
        return Response.html(f"{self.hits}:{params['x']}")


def _freed_without_gc(make) -> bool:
    """Whether the app ``make()`` builds, used and dropped, is freed by
    reference counting alone (the cyclic collector is off)."""
    gc.collect()
    gc.disable()
    try:
        ref = make()
        return ref() is None
    finally:
        gc.enable()


class TestAppLifetime:
    """An app's own methods as routes and middleware make no cycle, so a
    dropped app (and its render cache) is freed at once, not at the next
    full collection."""

    def test_dropped_counter_app_is_freed(self):
        def make():
            app = _Counter()
            assert app.handle(Request("GET", "https://counter.test/n/a")).body == b"1:a"
            return weakref.ref(app)

        assert _freed_without_gc(make)

    def test_dropped_serve_app_is_freed(self):
        store = build_synthetic_store()

        def make():
            _, transport, app = mount(store)
            response = get(transport, "https://serve.dissenter.local/api/status")
            assert response.status == 200
            return weakref.ref(app)

        assert _freed_without_gc(make)

    @pytest.mark.parametrize("name", ["dissenter", "gab", "youtube",
                                      "youtu_be", "pushshift", "reddit"])
    def test_dropped_platform_origin_is_freed(self, name, tiny_world):
        def make():
            origins = build_origins(tiny_world)
            origins.transport.send(
                Request("GET", "https://dissenter.com/discussion/begin?url=x")
            )
            return weakref.ref(getattr(origins, name))

        assert _freed_without_gc(make)


@pytest.fixture(scope="module")
def tiny_world():
    return build_world(WorldConfig(scale=0.0005, seed=7))
