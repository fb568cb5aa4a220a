"""HTTP client with retries, redirects, cookies, and instrumentation.

The crawler-facing API.  Semantics follow the paper's crawl hygiene:
timeouts are retried with backoff ("we monitor request timeouts and
re-request missed pages"), 5xx responses are retried, redirects are
followed up to a limit, and a cookie jar carries authenticated sessions for
the NSFW/offensive shadow crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.net.clock import VirtualClock
from repro.net.cookies import CookieJar
from repro.net.errors import NetworkError, TimeoutError, TooManyRedirects
from repro.net.http import (
    Headers,
    Request,
    Response,
    parse_delay_seconds,
    url_with_params,
)
from repro.net.transport import Transport

__all__ = ["ClientStats", "HttpClient"]

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503})


@dataclass
class ClientStats:
    """Counters a crawl report can cite.

    Plain attributes, written by the one thread that drives the crawl
    (``src/repro`` starts no thread; ``tests/test_single_threaded.py``
    keeps it that way).
    """

    requests: int = 0
    retries: int = 0
    timeouts: int = 0
    redirects_followed: int = 0
    bytes_received: int = 0
    status_counts: dict[int, int] = field(default_factory=dict)

    def record_response(self, response: Response) -> None:
        """Count one answered request: the request, its bytes, its status."""
        self.requests += 1
        self.bytes_received += response.size
        self.status_counts[response.status] = (
            self.status_counts.get(response.status, 0) + 1
        )


class HttpClient:
    """A synchronous HTTP client over a :class:`Transport`.

    Args:
        transport: the wire (normally a LoopbackTransport).
        user_agent: default User-Agent header.  Note the paper's
            observation that the Dissenter browser reports Brave's UA
            string — the default here mirrors that indistinguishability.
        max_retries: attempts after the first failure (timeouts and
            retryable statuses).
        backoff: base seconds for exponential backoff (doubles per retry).
        max_redirects: redirect-chain limit.
        timeout: per-request deadline in simulated seconds.
    """

    def __init__(
        self,
        transport: Transport,
        user_agent: str = (
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
            "(KHTML, like Gecko) Chrome/80.0.3987.87 Safari/537.36 Brave/80"
        ),
        max_retries: int = 3,
        backoff: float = 0.5,
        max_redirects: int = 5,
        timeout: float = 30.0,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._transport = transport
        # Every request starts from these; _build_request copies them.
        self._default_headers = Headers(
            [("User-Agent", user_agent), ("Accept", "*/*")]
        )
        self._max_retries = max_retries
        self._backoff = backoff
        self._max_redirects = max_redirects
        self._timeout = timeout
        self.cookies = CookieJar()
        self.stats = ClientStats()

    @property
    def clock(self) -> VirtualClock:
        """The transport's clock (for callers that pace themselves)."""
        return self._transport.clock  # type: ignore[attr-defined]

    def _build_request(
        self,
        method: str,
        url: str,
        params: Mapping[str, object] | None,
        headers: Mapping[str, str] | None,
        body: bytes,
    ) -> Request:
        request = Request(
            method=method,
            url=url_with_params(url, params),
            headers=self._default_headers.copy(),
        )
        if headers:
            for name, value in headers.items():
                request.headers.set(name, value)
        if self.cookies:
            cookie_header = self.cookies.cookie_header_for(request.parts)
            if cookie_header:
                request.headers.set("Cookie", cookie_header)
        request.body = body
        return request

    def _send_once(self, request: Request) -> Response:
        try:
            response = self._transport.send(request, timeout=self._timeout)
        except BaseException:
            # A request that got no response (timeout, kill) still counts.
            self.stats.requests += 1
            raise
        self.stats.record_response(response)
        set_cookies = response.headers.get_all("Set-Cookie")
        if set_cookies:
            self.cookies.ingest_response(response.url or request.url, set_cookies)
        return response

    def _retry_delay(self, response: Response | None, attempt: int) -> float:
        """Server-advertised wait beats exponential backoff.

        429 responses may carry ``Retry-After`` (seconds) or
        ``X-RateLimit-Reset`` (absolute timestamp); honouring them is what
        lets a crawl ride out a rate-limit window instead of burning its
        retry budget (§3.4's etiquette).
        """
        backoff = self._backoff * (2 ** (attempt - 1))
        if response is None:
            return backoff
        retry_after = response.headers.get("Retry-After")
        if retry_after is not None:
            delay = parse_delay_seconds(retry_after)
            if delay is not None:
                return max(backoff, delay)
        reset_at = response.headers.get("X-RateLimit-Reset")
        if reset_at is not None:
            timestamp = parse_delay_seconds(reset_at)
            if timestamp is not None:
                return max(backoff, timestamp - self.clock.now())
        return backoff

    def _send_with_retries(self, request: Request) -> Response:
        attempt = 0
        while True:
            response: Response | None = None
            try:
                response = self._send_once(request)
            except TimeoutError:
                self.stats.timeouts += 1
                if attempt >= self._max_retries:
                    raise
            else:
                if response.status not in _RETRYABLE_STATUSES:
                    return response
                if attempt >= self._max_retries:
                    return response
            attempt += 1
            self.stats.retries += 1
            self.clock.sleep(max(0.0, self._retry_delay(response, attempt)))

    def request(
        self,
        method: str,
        url: str,
        params: Mapping[str, object] | None = None,
        headers: Mapping[str, str] | None = None,
        body: bytes = b"",
        follow_redirects: bool = True,
    ) -> Response:
        """Issue a request, retrying and following redirects as configured.

        Raises:
            TimeoutError: all retry attempts timed out.
            TooManyRedirects: redirect chain exceeded the limit.
            ConnectError: host not routable.
        """
        request = self._build_request(method, url, params, headers, body)
        response = self._send_with_retries(request)
        redirects = 0
        while follow_redirects and response.is_redirect():
            redirects += 1
            if redirects > self._max_redirects:
                raise TooManyRedirects(url, self._max_redirects)
            self.stats.redirects_followed += 1
            target = response.redirect_target()
            # A redirect-followed request is a *fresh* GET: replaying the
            # caller's original headers would leak request-specific fields
            # (a POST's Content-Type, conditional headers) onto it.
            request = self._build_request("GET", target, None, None, b"")
            response = self._send_with_retries(request)
        return response

    def get(
        self,
        url: str,
        params: Mapping[str, object] | None = None,
        headers: Mapping[str, str] | None = None,
        follow_redirects: bool = True,
    ) -> Response:
        """GET a URL."""
        return self.request(
            "GET", url, params=params, headers=headers,
            follow_redirects=follow_redirects,
        )

    def get_or_none(self, url: str, **kwargs: Any) -> Response | None:
        """GET a URL; swallow substrate errors and return None.

        Convenience used by bulk crawl loops that account for failures
        separately (the validation module tracks what was missed).
        """
        try:
            return self.get(url, **kwargs)
        except NetworkError:
            return None
