"""Server-side request routing for the synthetic origins.

Each synthetic site (dissenter.com, gab.com, youtube.com, …) is an
:class:`App`: an ordered list of routes whose patterns may contain
``{placeholder}`` segments.  Handlers receive the request and the extracted
path parameters and return a :class:`~repro.net.http.Response`.

An app's own bound methods (``self.get(...)(self._page)``,
``self.use(self._rate_limit)``) are stored as their plain functions and
bound again at dispatch.  Storing the bound method would make a cycle
(app → route → bound method → app), and a dropped app would then live
on until a full garbage collection, holding its caches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.http import Request, Response

__all__ = ["App", "Route", "RouteHandler"]

RouteHandler = Callable[[Request, dict[str, str]], Response]

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


def _compile_pattern(pattern: str) -> re.Pattern[str]:
    """Compile ``/user/{name}`` into a regex with named groups.

    A placeholder matches one path segment; a trailing ``{rest:path}``-style
    greedy capture is spelled ``{name...}`` and matches the remainder of the
    path including slashes.
    """
    parts: list[str] = []
    index = 0
    for match in re.finditer(r"\{(\w+)(\.\.\.)?\}", pattern):
        parts.append(re.escape(pattern[index : match.start()]))
        name, greedy = match.group(1), match.group(2)
        if greedy:
            parts.append(f"(?P<{name}>.+)")
        else:
            parts.append(f"(?P<{name}>[^/]+)")
        index = match.end()
    parts.append(re.escape(pattern[index:]))
    return re.compile("^" + "".join(parts) + "$")


def _unbind(owner: object, function: Callable[..., Any]) -> tuple[Callable[..., Any], bool]:
    """``(function, False)``, or ``(plain function, True)`` for a method of ``owner``."""
    if getattr(function, "__self__", None) is owner:
        return function.__func__, True  # type: ignore[attr-defined]
    return function, False


@dataclass
class Route:
    """A compiled route: method + path pattern + handler.

    ``own`` marks a handler that is a method of the app holding the
    route, stored unbound: dispatch passes the app as its first argument.
    """

    method: str
    pattern: str
    handler: Callable[..., Response]
    regex: re.Pattern[str]
    own: bool = False

    def match(self, method: str, path: str) -> dict[str, str] | None:
        if method != self.method:
            return None
        found = self.regex.match(path)
        if found is None:
            return None
        return found.groupdict()


class App:
    """A synthetic origin server application.

    Usage::

        app = App("dissenter.com")

        @app.get("/user/{username}")
        def user_page(request, params):
            return Response.html(...)
    """

    def __init__(self, host: str) -> None:
        self.host = host.lower()
        self._routes: list[Route] = []
        self._middleware: list[tuple[Callable[..., Response | None], bool]] = []

    def add_route(self, method: str, pattern: str, handler: RouteHandler) -> None:
        function, own = _unbind(self, handler)
        self._routes.append(
            Route(
                method=method.upper(),
                pattern=pattern,
                handler=function,
                regex=_compile_pattern(pattern),
                own=own,
            )
        )

    def get(self, pattern: str) -> Callable[[RouteHandler], RouteHandler]:
        """Decorator registering a GET route."""
        def register(handler: RouteHandler) -> RouteHandler:
            self.add_route("GET", pattern, handler)
            return handler
        return register

    def use(self, middleware: Callable[[Request], Response | None]) -> None:
        """Register middleware that may short-circuit a request.

        Middleware runs before routing; returning a Response (e.g. a 429
        from a rate limiter) stops dispatch, returning None continues.
        """
        self._middleware.append(_unbind(self, middleware))

    def prepare(self, request: Request) -> Response | None:
        """Run the stateful half of dispatch: middleware.

        Returns a short-circuit response (e.g. a rate limiter's 429) or
        None when the request may proceed to :meth:`render`.
        """
        for middleware, own in self._middleware:
            early = middleware(self, request) if own else middleware(request)
            if early is not None:
                early.url = request.url
                return early
        return None

    def render(self, request: Request) -> Response:
        """Run the routing half of dispatch (no middleware)."""
        return self.route(request, request.method, request.path)

    def route(self, request: Request, method: str, path: str) -> Response:
        """:meth:`render` for a caller that already read the method and path."""
        for route in self._routes:
            params = route.match(method, path)
            if params is not None:
                if route.own:
                    response = route.handler(self, request, params)
                else:
                    response = route.handler(request, params)
                response.url = request.url
                return response
        response = Response.not_found()
        response.url = request.url
        return response

    def handle(self, request: Request) -> Response:
        """Dispatch a request to the first matching route."""
        early = self.prepare(request)
        if early is not None:
            return early
        return self.render(request)
