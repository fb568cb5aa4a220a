"""Networking substrate.

The paper's methodology is a web crawl: enumerate Gab's REST API, detect
Dissenter accounts by HTTP response size, spider HTML pages, honour
rate-limit headers, re-request timeouts.  Since the platform is defunct,
this package provides the substrate the crawl runs on: an HTTP
request/response model, a deterministic in-memory loopback transport with a
virtual clock and failure injection, a server-side router for the synthetic
origins, client-side retry/redirect/cookie machinery, and both token-bucket
and header-driven rate limiting.

Nothing here touches a real socket; the byte-level artefacts (headers,
HTML/JSON bodies, status codes, Set-Cookie) are real, the wire is simulated.
"""

from repro.net.client import ClientStats, HttpClient
from repro.net.clock import VirtualClock
from repro.net.cookies import Cookie, CookieJar
from repro.net.errors import (
    ConnectError,
    CrawlKilled,
    HTTPStatusError,
    NetworkError,
    RateLimitExceeded,
    TimeoutError,
    TooManyRedirects,
)
from repro.net.http import Headers, Request, Response
from repro.net.pool import FetchPool, FetchPoolStats
from repro.net.ratelimit import (
    HeaderRateLimiter,
    KeyedRateLimiter,
    TokenBucket,
)
from repro.net.router import App, Route
from repro.net.transport import FaultPlan, LoopbackTransport, Transport

__all__ = [
    "App",
    "ClientStats",
    "ConnectError",
    "Cookie",
    "CrawlKilled",
    "CookieJar",
    "FaultPlan",
    "FetchPool",
    "FetchPoolStats",
    "HTTPStatusError",
    "HeaderRateLimiter",
    "Headers",
    "HttpClient",
    "KeyedRateLimiter",
    "LoopbackTransport",
    "NetworkError",
    "RateLimitExceeded",
    "Request",
    "Response",
    "Route",
    "TimeoutError",
    "TokenBucket",
    "TooManyRedirects",
    "Transport",
    "VirtualClock",
]
