"""The page patterns as plain regexes: the reference for the seek.

``repro.crawler.parsing`` finds the discussion-page and home-page fields
by literal prefix (``_PrefixedPattern``); ``search``/``finditer`` on the
regexes below, which walk the whole page, must give the same matches.
Keyed by the name of the production pattern each one mirrors.  The
title, description, display-name, bio and comment-text groups here are
the lazy DOTALL ``(.*?)`` before the close tag, the reference for the
unrolled groups production reads them with.
:func:`parse_user_page` is the home-page parser on the plain regexes.
"""

from __future__ import annotations

import html
import re

from repro.crawler.records import CrawledUser

__all__ = ["PAGE_PATTERNS", "USER_PAGE_PATTERNS", "parse_user_page"]

PAGE_PATTERNS: dict[str, re.Pattern[str]] = {
    "_TITLE_RE": re.compile(r'<h1 class="page-title">(.*?)</h1>', re.DOTALL),
    "_DESCRIPTION_RE": re.compile(
        r'<p class="page-description">(.*?)</p>', re.DOTALL
    ),
    "_COMMENTURL_ID_RE": re.compile(
        r'<meta name="commenturl-id" content="([0-9a-f]{24})">'
    ),
    "_TARGET_URL_RE": re.compile(r'<meta name="target-url" content="(.*?)">'),
    "_VOTES_RE": re.compile(
        r'<span class="votes" data-up="(\d+)" data-down="(\d+)">'
    ),
    "_COMMENT_RE": re.compile(
        r'<div class="comment" data-comment-id="([0-9a-f]{24})" '
        r'data-author-id="([0-9a-f]{24})" '
        r'data-parent-id="([0-9a-f]{24})?" '
        r'data-created="(\d+)">\s*'
        r'<p class="comment-text">(.*?)</p>',
        re.DOTALL,
    ),
}

USER_PAGE_PATTERNS: dict[str, re.Pattern[str]] = {
    "_DISPLAY_NAME_RE": re.compile(
        r'<h1 class="display-name">(.*?)</h1>', re.DOTALL
    ),
    "_USERNAME_RE": re.compile(r'<span class="username">@(.*?)</span>'),
    "_AUTHOR_ID_RE": re.compile(
        r'<meta name="author-id" content="([0-9a-f]{24})">'
    ),
    "_BIO_RE": re.compile(r'<p class="bio">(.*?)</p>', re.DOTALL),
    "_URL_ITEM_RE": re.compile(
        r'<li class="commented-url"><a href="/discussion/([0-9a-f]{24})">'
    ),
}


def parse_user_page(body: str) -> CrawledUser | None:
    """``repro.crawler.parsing.parse_user_page`` on the plain regexes."""
    patterns = USER_PAGE_PATTERNS
    author_id = patterns["_AUTHOR_ID_RE"].search(body)
    username = patterns["_USERNAME_RE"].search(body)
    if author_id is None or username is None:
        return None
    display = patterns["_DISPLAY_NAME_RE"].search(body)
    bio = patterns["_BIO_RE"].search(body)
    return CrawledUser(
        username=html.unescape(username.group(1)),
        author_id=author_id.group(1),
        display_name=html.unescape(display.group(1)) if display else "",
        bio=html.unescape(bio.group(1)) if bio else "",
        commented_url_ids=patterns["_URL_ITEM_RE"].findall(body),
    )
