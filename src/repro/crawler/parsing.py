"""HTML/JSON parsers for the crawled pages.

Regex-based extraction against the stable markup the origins emit.  Every
parser is total: malformed pages yield ``None`` or empty collections, and
the crawler's validation pass re-requests anything that failed to parse.
"""

from __future__ import annotations

import hashlib
import html as _html
import json
import re
from typing import Iterator, NamedTuple

from repro.crawler.records import (
    CrawledComment,
    CrawledGabAccount,
    CrawledUrl,
    CrawledUser,
    CrawledYouTubeItem,
)
from repro.net.http import Response

__all__ = [
    "PageParseMemo",
    "ParsedPage",
    "parse_account_ids",
    "parse_account_usernames",
    "parse_comment_author_blob",
    "parse_comment_page",
    "parse_comments",
    "parse_gab_account",
    "parse_pushshift_authors",
    "parse_pushshift_history",
    "parse_user_page",
    "parse_youtube_page",
]

class _PrefixedPattern:
    """A regex that starts with a literal prefix, searched by that prefix.

    :meth:`search` finds each occurrence of the prefix with ``str.find``
    and tries the regex only there.  Every match starts with the prefix,
    so the first occurrence where the regex matches is where
    ``regex.search`` would have matched, with the same span and groups.

    The prefix holds a ``"``, so no occurrence can start before the
    body's first ``"`` less the quote's offset in the prefix.  A
    one-character find (a ``memchr``) locates that quote, which skips
    the page's quote-free 10 kB style block much faster than a
    substring search or the regex engine would walk it.
    """

    __slots__ = ("prefix", "regex", "_quote_at")

    def __init__(self, prefix: str, rest: str) -> None:
        self.prefix = prefix
        self.regex = re.compile(re.escape(prefix) + rest)
        self._quote_at = prefix.index('"')

    def _first(self, body: str) -> int:
        """Index of the prefix's first occurrence in ``body``, or -1."""
        quote = body.find('"')
        if quote < 0:
            return -1
        return body.find(self.prefix, max(quote - self._quote_at, 0))

    def search(self, body: str) -> re.Match[str] | None:
        """``regex.search(body)``."""
        find, match, prefix = body.find, self.regex.match, self.prefix
        start = self._first(body)
        while start >= 0:
            found = match(body, start)
            if found is not None:
                return found
            start = find(prefix, start + 1)
        return None

    def finditer(self, body: str) -> Iterator[re.Match[str]]:
        """``regex.finditer(body)``: no match starts before the first prefix."""
        start = self._first(body)
        if start < 0:
            return iter(())
        return self.regex.finditer(body, start)


def _text_until(close: str) -> str:
    """A group of all text up to the first ``close`` tag, then the tag.

    The same match as DOTALL ``(.*?)`` + ``close``, unrolled: runs of
    characters other than ``<``, and each ``<`` that does not start
    ``close``, taken greedily.  The lazy loop tries the closer after
    every character; this form scans each run between ``<`` in one
    charset step.  ``[^<]`` also matches newlines, so no DOTALL is
    needed.
    """
    return f"([^<]*(?:<(?!{re.escape(close[1:])})[^<]*)*){re.escape(close)}"


# A Dissenter home page: the user's fields and commented-URL list.
_DISPLAY_NAME_RE = _PrefixedPattern(
    '<h1 class="display-name">', _text_until("</h1>")
)
_USERNAME_RE = _PrefixedPattern('<span class="username">@', r"(.*?)</span>")
_AUTHOR_ID_RE = _PrefixedPattern(
    '<meta name="author-id" content="', r'([0-9a-f]{24})">'
)
_BIO_RE = _PrefixedPattern('<p class="bio">', _text_until("</p>"))
_URL_ITEM_RE = _PrefixedPattern(
    '<li class="commented-url"><a href="/discussion/', r'([0-9a-f]{24})">'
)

# A discussion page: its URL-level fields and its comment blocks.
_TITLE_RE = _PrefixedPattern('<h1 class="page-title">', _text_until("</h1>"))
_DESCRIPTION_RE = _PrefixedPattern(
    '<p class="page-description">', _text_until("</p>")
)
_COMMENTURL_ID_RE = _PrefixedPattern(
    '<meta name="commenturl-id" content="', r'([0-9a-f]{24})">'
)
_TARGET_URL_RE = _PrefixedPattern('<meta name="target-url" content="', r'(.*?)">')
_VOTES_RE = _PrefixedPattern(
    '<span class="votes" data-up="', r'(\d+)" data-down="(\d+)">'
)
_COMMENT_RE = _PrefixedPattern(
    '<div class="comment" data-comment-id="',
    r'([0-9a-f]{24})" '
    r'data-author-id="([0-9a-f]{24})" '
    r'data-parent-id="([0-9a-f]{24})?" '
    r'data-created="(\d+)">\s*'
    r'<p class="comment-text">' + _text_until("</p>"),
)
_COMMENT_AUTHOR_RE = re.compile(r"// var commentAuthor = (\[.*?\]);", re.DOTALL)
_YT_BLOB_RE = re.compile(r"var ytInitialData = (\{.*?\});</script>", re.DOTALL)


def _unescape(markup: str) -> str:
    return _html.unescape(markup)


def parse_user_page(body: str) -> CrawledUser | None:
    """Parse a Dissenter home page into a :class:`CrawledUser`."""
    author_id = _AUTHOR_ID_RE.search(body)
    username = _USERNAME_RE.search(body)
    if author_id is None or username is None:
        return None
    display = _DISPLAY_NAME_RE.search(body)
    bio = _BIO_RE.search(body)
    return CrawledUser(
        username=_unescape(username.group(1)),
        author_id=author_id.group(1),
        display_name=_unescape(display.group(1)) if display else "",
        bio=_unescape(bio.group(1)) if bio else "",
        commented_url_ids=[m.group(1) for m in _URL_ITEM_RE.finditer(body)],
    )


def parse_comments(body: str, commenturl_id: str) -> list[CrawledComment]:
    """Extract every comment block from a page, on URL ``commenturl_id``.

    Positional ``CrawledComment`` fields: comment, author and URL ids,
    text, parent id, creation epoch.  Most texts hold no ``&``, and
    ``html.unescape`` would return them unchanged.
    """
    unescape = _html.unescape
    return [
        CrawledComment(
            comment_id, author_id, commenturl_id,
            unescape(text) if "&" in text else text,
            parent_id or None, int(created),
        )
        for comment_id, author_id, parent_id, created, text
        in map(re.Match.groups, _COMMENT_RE.finditer(body))
    ]


def parse_comment_page(
    body: str,
) -> tuple[CrawledUrl | None, list[CrawledComment]]:
    """Parse a discussion page into URL-level data plus its comments."""
    commenturl_id = _COMMENTURL_ID_RE.search(body)
    if commenturl_id is None:
        return None, []
    title = _TITLE_RE.search(body)
    description = _DESCRIPTION_RE.search(body)
    target = _TARGET_URL_RE.search(body)
    votes = _VOTES_RE.search(body)
    url = CrawledUrl(
        commenturl_id=commenturl_id.group(1),
        url=_unescape(target.group(1)) if target else "",
        title=_unescape(title.group(1)) if title else "",
        description=_unescape(description.group(1)) if description else "",
        upvotes=int(votes.group(1)) if votes else 0,
        downvotes=int(votes.group(2)) if votes else 0,
    )
    return url, parse_comments(body, url.commenturl_id)


class ParsedPage(NamedTuple):
    """One 200 discussion page's :func:`parse_comment_page`."""

    url: CrawledUrl | None
    comments: list[CrawledComment]


class PageParseMemo:
    """Digest-keyed memo of discussion-page parses, for one crawl.

    The baseline comment-page phase, the §3.2 re-request loop and both
    shadow passes fetch the same discussion pages, and most of those
    fetches return bytes already parsed earlier in the crawl.  The memo
    is keyed by body *value*: the transport renders every request
    afresh, and equal bytes share one parse.  The key is the body's
    length and SHA-256 digest, so an entry holds no page body, only the
    parse's records; the memo grows by one entry per distinct 200 body
    and has no size bound of its own (``stage_crawl`` clears it once
    the last discussion page is parsed).

    A memo hit hands back the same record objects as the first parse,
    so callers must not mutate records that are already in their store.
    """

    def __init__(self) -> None:
        self._pages: dict[tuple[int, bytes], ParsedPage] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def parse(self, response: Response | None) -> ParsedPage | None:
        """The parse of a 200 response (memoised), else None."""
        if response is None or response.status != 200:
            return None
        body = response.body
        key = (len(body), hashlib.sha256(body).digest())
        page = self._pages.get(key)
        if page is None:
            page = self._pages[key] = ParsedPage(*parse_comment_page(response.text))
        return page

    def clear(self) -> None:
        """Drop every memoised page."""
        self._pages.clear()


def parse_comment_author_blob(body: str) -> dict | None:
    """Recover the hidden commentAuthor metadata from a comment page.

    The variable is commented out in the served JavaScript (§3.2) — the
    parser reads through the ``//`` prefix just as the paper's did.
    """
    match = _COMMENT_AUTHOR_RE.search(body)
    if match is None:
        return None
    try:
        payload = json.loads(match.group(1))
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, list) or not payload:
        return None
    return payload[0]


def _json_or_none(body: str) -> object:
    """``json.loads(body)``, or None when the body is not JSON."""
    try:
        return json.loads(body)
    except (ValueError, RecursionError):
        return None


def parse_gab_account(body: str) -> CrawledGabAccount | None:
    """Parse one Gab accounts-API record (§3.1); None when malformed.

    A 200 whose body is not an account object (truncated JSON, a list,
    a missing or non-numeric ``id``, a non-string name) is a miss, the
    same as an unallocated ID.
    """
    payload = _json_or_none(body)
    if not isinstance(payload, dict):
        return None
    try:
        account = CrawledGabAccount(
            gab_id=int(payload["id"]),
            username=payload["username"],
            display_name=payload.get("display_name", ""),
            created_at_iso=payload.get("created_at", ""),
            followers_count=int(payload.get("followers_count", 0)),
            following_count=int(payload.get("following_count", 0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    texts = (account.username, account.display_name, account.created_at_iso)
    if not all(isinstance(text, str) for text in texts):
        return None
    return account


def parse_account_usernames(body: str) -> list[str] | None:
    """The usernames on one page of a Gab follower list (§3.1 seeds).

    None when the page is not a list of objects with string
    ``username`` fields; the caller ends that list's pagination there.
    """
    payload = _json_or_none(body)
    if not isinstance(payload, list):
        return None
    try:
        names = [entry["username"] for entry in payload]
    except (KeyError, TypeError):
        return None
    return names if all(isinstance(name, str) for name in names) else None


def parse_pushshift_authors(body: str) -> list[str] | None:
    """The author names on one page of Pushshift's Gab archive (§3.1).

    None when the page is not an ``{"aggs": {"author": [{"key": ...}]}}``
    object with string keys; the caller ends the pagination there.
    """
    payload = _json_or_none(body)
    if not isinstance(payload, dict):
        return None
    try:
        names = [entry["key"] for entry in payload.get("aggs", {}).get("author", [])]
    except (AttributeError, KeyError, TypeError):
        return None
    return names if all(isinstance(name, str) for name in names) else None


def parse_pushshift_history(body: str) -> tuple[int, list[str]] | None:
    """``(total_results, comment bodies)`` of a Pushshift comment search.

    None when the body is not a search result object (truncated JSON, a
    list, a non-numeric total, an entry without a string ``body``); the
    caller counts that as no history (§4.4.1).
    """
    payload = _json_or_none(body)
    if not isinstance(payload, dict):
        return None
    try:
        total = int(payload.get("metadata", {}).get("total_results", 0))
        texts = [entry["body"] for entry in payload.get("data", [])]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        return None
    return (total, texts) if all(isinstance(text, str) for text in texts) else None


def parse_account_ids(body: str) -> list[int] | None:
    """The account IDs on one page of a Gab follower list (§3.4).

    None when the page is not a list of objects with numeric ``id``
    fields; the caller ends that list's pagination there.
    """
    payload = _json_or_none(body)
    if not isinstance(payload, list):
        return None
    try:
        return [int(entry["id"]) for entry in payload]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def parse_youtube_page(url: str, body: str) -> CrawledYouTubeItem | None:
    """Extract video metadata from the rendered ytInitialData blob.

    This is the "Selenium" step: the static HTML title is useless, the
    data lives in JavaScript.
    """
    match = _YT_BLOB_RE.search(body)
    if match is None:
        return None
    try:
        blob = json.loads(match.group(1))
    except json.JSONDecodeError:
        return None
    status = blob.get("status", "ERROR")
    kind = blob.get("kind", "video")
    if status == "OK":
        details = blob.get("videoDetails", {})
        return CrawledYouTubeItem(
            url=url,
            kind=kind,
            status="OK",
            title=details.get("title", ""),
            owner=details.get("author", ""),
            comments_disabled=bool(details.get("commentsDisabled", False)),
        )
    return CrawledYouTubeItem(
        url=url,
        kind=kind,
        status=blob.get("reason", "unavailable"),
    )
