"""A discussion-page parse memo that never hits: the reference for the memo.

Every page is parsed afresh, as if no page had been seen before, so a
crawl run with it is what the crawl-wide memo must reproduce byte for
byte.
"""

from __future__ import annotations

import repro.crawler.parsing as parsing
from repro.crawler.parsing import PageParseMemo, ParsedPage
from repro.net.http import Response

__all__ = ["NeverHitParseMemo"]


class NeverHitParseMemo(PageParseMemo):
    """Same interface as ``PageParseMemo``; remembers nothing."""

    def parse(self, response: Response | None) -> ParsedPage | None:
        if response is None or response.status != 200:
            return None
        # Through the module, so a patched parse_comment_page sees
        # every call.
        return ParsedPage(*parsing.parse_comment_page(response.text))
