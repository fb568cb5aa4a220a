"""The discussion-page patterns as plain regexes: the reference for the seek.

``repro.crawler.parsing`` finds these fields by literal prefix
(``_PrefixedPattern``); ``search``/``finditer`` on the regexes below,
which walk the whole page, must give the same matches.  Keyed by the
name of the production pattern each one mirrors.
"""

from __future__ import annotations

import re

__all__ = ["PAGE_PATTERNS"]

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
