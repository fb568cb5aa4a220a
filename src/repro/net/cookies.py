"""Cookie jar with domain scoping.

The paper's shadow-content methodology (§3.2) re-spiders Dissenter "using
the HTTP cookies of an authenticated account" with NSFW/offensive viewing
enabled.  The jar here implements the subset of RFC 6265 needed for that:
Set-Cookie parsing, domain/path matching, replacement, and Cookie header
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import SplitResult, urlsplit

__all__ = ["Cookie", "CookieJar"]


@dataclass(frozen=True)
class Cookie:
    """A single cookie bound to a domain and path."""

    name: str
    value: str
    domain: str
    path: str = "/"

    def matches(self, host: str, path: str) -> bool:
        """RFC 6265 domain-suffix and path-prefix matching."""
        host = host.lower()
        domain = self.domain.lower().lstrip(".")
        domain_ok = host == domain or host.endswith("." + domain)
        path_ok = path.startswith(self.path)
        return domain_ok and path_ok


def parse_set_cookie(header_value: str, default_domain: str) -> Cookie:
    """Parse one Set-Cookie header value."""
    parts = [p.strip() for p in header_value.split(";") if p.strip()]
    if not parts or "=" not in parts[0]:
        raise ValueError(f"malformed Set-Cookie: {header_value!r}")
    name, _, value = parts[0].partition("=")
    domain = default_domain
    path = "/"
    for attribute in parts[1:]:
        key, _, attr_value = attribute.partition("=")
        key = key.strip().lower()
        if key == "domain" and attr_value:
            domain = attr_value.strip()
        elif key == "path" and attr_value:
            path = attr_value.strip()
    return Cookie(name=name.strip(), value=value.strip(), domain=domain, path=path)


class CookieJar:
    """Holds cookies and assembles Cookie headers per request."""

    def __init__(self) -> None:
        self._cookies: dict[tuple[str, str, str], Cookie] = {}

    def __len__(self) -> int:
        return len(self._cookies)

    def set(self, cookie: Cookie) -> None:
        """Insert or replace a cookie (keyed by name, domain, path)."""
        self._cookies[(cookie.name, cookie.domain.lower(), cookie.path)] = cookie

    def set_simple(self, name: str, value: str, domain: str) -> None:
        """Convenience: set a host-wide cookie."""
        self.set(Cookie(name=name, value=value, domain=domain))

    def get(self, name: str, domain: str) -> Cookie | None:
        for cookie in self._cookies.values():
            if cookie.name == name and cookie.matches(domain, "/"):
                return cookie
        return None

    def clear(self, domain: str | None = None) -> None:
        """Drop all cookies, or only those for one domain."""
        if domain is None:
            self._cookies.clear()
            return
        domain = domain.lower()
        self._cookies = {
            key: cookie
            for key, cookie in self._cookies.items()
            if not cookie.matches(domain, "/")
        }

    def ingest_response(self, url: str, set_cookie_values: list[str]) -> None:
        """Store cookies from a response's Set-Cookie headers."""
        if not set_cookie_values:
            return
        host = urlsplit(url).netloc.lower()
        for value in set_cookie_values:
            self.set(parse_set_cookie(value, default_domain=host))

    def to_state(self) -> list[dict]:
        """Snapshot the jar as a JSON-serialisable list (checkpointing)."""
        return [
            {
                "name": cookie.name,
                "value": cookie.value,
                "domain": cookie.domain,
                "path": cookie.path,
            }
            for cookie in self._cookies.values()
        ]

    @classmethod
    def from_state(cls, state: list[dict]) -> "CookieJar":
        """Rebuild a jar from :meth:`to_state` output.

        Raises:
            ValueError: the state list is malformed.
        """
        jar = cls()
        try:
            for entry in state:
                jar.set(
                    Cookie(
                        name=entry["name"],
                        value=entry["value"],
                        domain=entry["domain"],
                        path=entry.get("path", "/"),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cookie-jar state: {exc!r}") from exc
        return jar

    def cookie_header_for(self, url: str | SplitResult) -> str | None:
        """Assemble the Cookie header for a request URL (or its parts), or None."""
        if not self._cookies:
            return None
        parts = urlsplit(url) if isinstance(url, str) else url
        host = parts.netloc.lower()
        path = parts.path or "/"
        matched = [
            cookie
            for cookie in self._cookies.values()
            if cookie.matches(host, path)
        ]
        if not matched:
            return None
        matched.sort(key=lambda c: (-len(c.path), c.name))
        return "; ".join(f"{c.name}={c.value}" for c in matched)
