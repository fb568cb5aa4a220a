"""A discussion-page parse memo that never hits: the reference for the memo.

Every page is parsed afresh, as if no page had been seen before, so a
crawl run with it is what the crawl-wide memo must reproduce byte for
byte.
"""

from __future__ import annotations

from repro.crawler.parsing import PageParseMemo, ParsedPage

__all__ = ["NeverHitParseMemo"]


class NeverHitParseMemo(PageParseMemo):
    """Same interface as ``PageParseMemo``; remembers nothing."""

    def remember(self, page: ParsedPage | None) -> None:
        pass
