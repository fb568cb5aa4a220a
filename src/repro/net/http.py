"""HTTP message model: headers, requests, responses.

A deliberately small but faithful subset of HTTP/1.1 semantics — enough for
the crawl methodology the paper describes: status codes, case-insensitive
headers, query strings, cookies, redirects, JSON and HTML bodies, and
response sizes (which the paper uses to detect Dissenter accounts: >10 kB
for an existing user page vs ~150 B for a missing one).
"""

from __future__ import annotations

import json as _json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import SplitResult, parse_qsl, quote, urlencode, urljoin, urlsplit

from repro.net.errors import HTTPStatusError

__all__ = ["Headers", "Request", "Response", "url_with_params"]

REASON_PHRASES: dict[int, str] = {
    200: "OK",
    201: "Created",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class Headers:
    """Case-insensitive header map preserving insertion order.

    Multiple values per name are supported (needed for Set-Cookie).
    """

    def __init__(self, items: Mapping[str, str] | Iterable[tuple[str, str]] = ()) -> None:
        self._items: list[tuple[str, str]] = []
        if isinstance(items, (dict, Mapping)):
            items = items.items()
        for name, value in items:
            self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header, keeping any existing values with the same name."""
        self._items.append((name, str(value)))

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with a single value."""
        lowered = name.lower()
        if any(n.lower() == lowered for n, _ in self._items):
            self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._items.append((name, str(value)))

    def get(self, name: str, default: str | None = None) -> str | None:
        lowered = name.lower()
        for n, v in self._items:
            if n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def copy(self) -> "Headers":
        # The items were validated on the way in: copy the list as is.
        clone = Headers.__new__(Headers)
        clone._items = list(self._items)
        return clone


def url_with_params(url: str, params: Mapping[str, Any] | None) -> str:
    """Append query parameters to a URL (after any existing ones)."""
    if not params:
        return url
    encoded = urlencode({k: str(v) for k, v in params.items()})
    separator = "&" if "?" in url else "?"
    return f"{url}{separator}{encoded}"


@dataclass
class Request:
    """An outbound HTTP request.

    Attributes:
        method: HTTP verb, upper-case.
        url: absolute URL including scheme and host.
        headers: request headers (Cookie is filled in by the client).
        body: raw request body bytes.
    """

    method: str
    url: str
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    _split: SplitResult = field(init=False, repr=False, compare=False)
    _split_url: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        self._split_url = self.url
        self._split = parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {self.url!r}")
        if not parts.netloc:
            raise ValueError(f"URL must be absolute: {self.url!r}")

    @property
    def parts(self) -> SplitResult:
        """``urlsplit(self.url)``, parsed once per assigned URL."""
        if self._split_url is not self.url:
            self._split = urlsplit(self.url)
            self._split_url = self.url
        return self._split

    @property
    def host(self) -> str:
        return self.parts.netloc.lower()

    @property
    def path(self) -> str:
        return self.parts.path or "/"

    @property
    def query(self) -> dict[str, str]:
        """Query parameters (last value wins on duplicates)."""
        return dict(parse_qsl(self.parts.query, keep_blank_values=True))

    @property
    def scheme(self) -> str:
        return self.parts.scheme

    def cookie_header(self) -> str | None:
        return self.headers.get("Cookie")


@dataclass
class Response:
    """An inbound HTTP response.

    Attributes:
        status: status code.
        headers: response headers.
        body: raw body bytes (``size`` derives from this — the account
            detection trick needs honest byte counts).
        url: final URL the response was served from (after redirects).
        elapsed: simulated seconds the request took.
    """

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    url: str = ""
    elapsed: float = 0.0

    @property
    def reason(self) -> str:
        return REASON_PHRASES.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 400

    @property
    def size(self) -> int:
        """Body size in bytes."""
        return len(self.body)

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")

    def json(self) -> Any:
        """Decode the body as JSON."""
        return _json.loads(self.text)

    def raise_for_status(self) -> "Response":
        """Raise :class:`HTTPStatusError` on 4xx/5xx; return self otherwise."""
        if self.status >= 400:
            raise HTTPStatusError(self.status, self.url)
        return self

    def is_redirect(self) -> bool:
        return self.status in (301, 302) and "Location" in self.headers

    def redirect_target(self) -> str:
        location = self.headers.get("Location")
        if location is None:
            raise ValueError("response has no Location header")
        return urljoin(self.url, location)

    # ------------------------------------------------------------------
    # Convenience constructors used by the synthetic origin servers.
    # ------------------------------------------------------------------

    @classmethod
    def html(cls, markup: str, status: int = 200) -> "Response":
        headers = Headers({"Content-Type": "text/html; charset=utf-8"})
        return cls(status=status, headers=headers, body=markup.encode("utf-8"))

    @classmethod
    def json_response(cls, payload: Any, status: int = 200) -> "Response":
        headers = Headers({"Content-Type": "application/json"})
        return cls(
            status=status,
            headers=headers,
            body=_json.dumps(payload).encode("utf-8"),
        )

    @classmethod
    def not_found(cls, message: str = "Not Found") -> "Response":
        return cls.html(f"<html><body>{quote(message, safe=' ')}</body></html>", 404)

    @classmethod
    def redirect(cls, location: str, permanent: bool = False) -> "Response":
        headers = Headers({"Location": location})
        return cls(status=301 if permanent else 302, headers=headers)
