"""HTTP message model: headers, requests, responses.

A deliberately small but faithful subset of HTTP/1.1 semantics — enough for
the crawl methodology the paper describes: status codes, case-insensitive
headers, query strings, cookies, redirects, JSON and HTML bodies, and
response sizes (which the paper uses to detect Dissenter accounts: >10 kB
for an existing user page vs ~150 B for a missing one).
"""

from __future__ import annotations

import json as _json
import math
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import SplitResult, parse_qsl, quote, urlencode, urljoin, urlsplit

from repro.net.errors import HTTPStatusError

__all__ = [
    "Headers",
    "Request",
    "Response",
    "encode_json",
    "parse_delay_seconds",
    "split_domains",
    "split_url",
    "url_with_params",
]

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


#: ``json.dumps(payload)`` with default options, without its circular-
#: reference check: JSON responses are built from fresh payloads, so one
#: shared encoder writes the same bytes for less (a cyclic payload is a
#: RecursionError here, not a ValueError).
encode_json = _json.JSONEncoder(check_circular=False).encode


class Headers:
    """Case-insensitive header map preserving insertion order.

    Multiple values per name are supported (needed for Set-Cookie).
    ``_keys`` holds each item's lower-cased name, so a lookup lowers
    only the name it is asked for and then compares in C.
    """

    __slots__ = ("_items", "_keys")

    def __init__(self, items: Mapping[str, str] | Iterable[tuple[str, str]] = ()) -> None:
        self._items: list[tuple[str, str]] = []
        self._keys: list[str] = []
        if not items:   # the per-request default: skip the ABC check
            return
        if isinstance(items, (dict, Mapping)):
            items = items.items()
        for name, value in items:
            self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header, keeping any existing values with the same name."""
        self._items.append((name, str(value)))
        self._keys.append(name.lower())

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with a single value."""
        lowered = name.lower()
        if lowered in self._keys:
            kept = [
                (item, key)
                for item, key in zip(self._items, self._keys)
                if key != lowered
            ]
            self._items = [item for item, _ in kept]
            self._keys = [key for _, key in kept]
        self._items.append((name, str(value)))
        self._keys.append(lowered)

    def get(self, name: str, default: str | None = None) -> str | None:
        keys = self._keys
        lowered = name.lower()
        if lowered in keys:
            return self._items[keys.index(lowered)][1]
        return default

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        if lowered not in self._keys:
            return []
        return [
            item[1]
            for item, key in zip(self._items, self._keys)
            if key == lowered
        ]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._keys

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def copy(self) -> "Headers":
        # The items were validated on the way in: copy the lists as is.
        clone = Headers.__new__(Headers)
        clone._items = list(self._items)
        clone._keys = list(self._keys)
        return clone


def parse_delay_seconds(value: str) -> float | None:
    """A server-advertised delay or timestamp as finite, non-negative seconds.

    ``float()`` alone is not a safe parse here: it *raises* on the
    HTTP-date form of ``Retry-After``, and it *accepts* ``"inf"`` and
    ``"nan"`` — an infinite sleep would wedge the virtual clock forever.
    Anything unusable degrades to ``None`` so the caller falls back to
    its own default (exponential backoff, or the limiter's floor).
    """
    try:
        parsed = float(value)
    except ValueError:
        return None
    if not math.isfinite(parsed) or parsed < 0:
        return None
    return parsed


# A URL ``split_url`` can split without ``urlsplit``: a lower-case
# http(s) scheme and printable ASCII only, with no brackets in the
# netloc (they would start urlsplit's IPv6 validation).  The groups
# fall exactly where urlsplit cuts: the netloc runs to the first of
# "/?#", so a path is empty or starts with "/"; the path runs to the
# first "?" or "#", the query to the first "#", and the fragment takes
# the rest.  Each class lists the visible ASCII range "!"-"~" (0x21-0x7e)
# less the delimiters that end its part.
_NETLOC = r'[!"$-.0->@-Z\\^-~]'      # no / ? # [ ]
_PATH = r'[!-"$->@-~]'                # no ? #
_QUERY = r'[!-"$-~]'                  # no #
_FRAGMENT = r"[!-~]"
_PLAIN_URL_RE = re.compile(
    r"(https?)://"
    rf"({_NETLOC}*)"
    rf"((?:/{_PATH}*)?)"
    rf"(?:\?({_QUERY}*))?"
    rf"(?:#({_FRAGMENT}*))?\Z"
)


def split_url(url: str) -> SplitResult:
    """``urlsplit(url)``, with plain http(s) URLs split by one regex match.

    Any other URL (upper-case scheme, whitespace or control characters,
    non-ASCII, an IPv6 netloc) goes to ``urlsplit`` itself, so the result
    is always exactly ``urlsplit``'s.
    """
    match = _PLAIN_URL_RE.match(url)
    if match is None:
        return urlsplit(url)
    # The namedtuple's own __new__ is a Python-level call; this is the
    # same tuple for half the cost.
    return tuple.__new__(SplitResult, match.groups(""))


# Multi-label suffixes treated as a single effective TLD, as Table 2 does
# (bbc.co.uk counts toward .uk).
_COMPOSITE_SUFFIXES = (".co.uk", ".org.uk", ".ac.uk", ".co.nz", ".com.au")


def split_domains(parts: SplitResult) -> tuple[str | None, str | None]:
    """``(tld_of(url), second_level_domain(url))`` from ``urlsplit(url)``.

    One split of a URL serves both (the column projector also reads the
    query from it); :func:`split_url` gives the same split.
    """
    if parts.scheme not in ("http", "https"):
        return None, None
    host = parts.netloc.lower().rsplit(":", 1)[0]
    if "." not in host:
        return None, None
    tld = "." + host.rsplit(".", 1)[1]
    for suffix in _COMPOSITE_SUFFIXES:
        if host.endswith(suffix):
            stem = host[: -len(suffix)]
            return tld, (stem.rsplit(".", 1)[-1] + suffix if stem else None)
    return tld, ".".join(host.rsplit(".", 2)[-2:])


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
        self._split = parts = split_url(self.url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme in {self.url!r}")
        if not parts.netloc:
            raise ValueError(f"URL must be absolute: {self.url!r}")

    @property
    def parts(self) -> SplitResult:
        """``urlsplit(self.url)``, parsed once per assigned URL."""
        if self._split_url is not self.url:
            self._split = split_url(self.url)
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
        query = self.parts.query
        if not query:
            return {}
        return dict(parse_qsl(query, keep_blank_values=True))

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
        return cls.json_text(encode_json(payload), status)

    @classmethod
    def json_text(cls, text: str, status: int = 200) -> "Response":
        """A JSON response around already-encoded (ASCII) JSON text."""
        headers = Headers.__new__(Headers)
        headers._items = [("Content-Type", "application/json")]
        headers._keys = ["content-type"]
        return cls(status=status, headers=headers, body=text.encode("utf-8"))

    @classmethod
    def not_found(cls, message: str = "Not Found") -> "Response":
        return cls.html(f"<html><body>{quote(message, safe=' ')}</body></html>", 404)

    @classmethod
    def redirect(cls, location: str, permanent: bool = False) -> "Response":
        headers = Headers({"Location": location})
        return cls(status=301 if permanent else 302, headers=headers)
