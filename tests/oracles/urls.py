"""URL domain helpers that split the URL once per question.

The reference for ``repro.net.http.split_domains``, which answers
``tld_of`` and ``second_level_domain`` from one split that the column
projector also reads the query from.  These split the URL in each
function, as the projector did with a third split for the query; for
any URL the answers (or the error) must be equal.
"""

from __future__ import annotations

from urllib.parse import urlsplit

__all__ = ["second_level_domain", "tld_of", "url_meta"]

_COMPOSITE_SUFFIXES = (".co.uk", ".org.uk", ".ac.uk", ".co.nz", ".com.au")


def tld_of(url: str) -> str | None:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        return None
    host = parts.netloc.lower().rsplit(":", 1)[0]
    if "." not in host:
        return None
    return "." + host.rsplit(".", 1)[1]


def second_level_domain(url: str) -> str | None:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        return None
    host = parts.netloc.lower().rsplit(":", 1)[0]
    for suffix in _COMPOSITE_SUFFIXES:
        if host.endswith(suffix):
            stem = host[: -len(suffix)]
            if not stem:
                return None
            return stem.rsplit(".", 1)[-1] + suffix
    if host.count(".") == 0:
        return None
    pieces = host.rsplit(".", 2)
    return ".".join(pieces[-2:])


def url_meta(url: str) -> tuple[str | None, str | None, str, bool]:
    """(tld, domain, scheme, has >= 2 GET parameters), as the column
    projector derived them per distinct URL string."""
    tld = tld_of(url)
    domain = second_level_domain(url)
    scheme = url.split(":", 1)[0].lower() if ":" in url else "unknown"
    query = urlsplit(url).query if "://" in url else ""
    return tld, domain, scheme, query.count("&") >= 1
