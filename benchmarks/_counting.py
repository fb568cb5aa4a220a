"""Crawl counters shared by the benches: parses against distinct pages.

:func:`count_discussion_parses` patches ``parse_comment_page`` and
``LoopbackTransport.send`` for the length of a ``with`` block and counts
the parse calls and the distinct 200 discussion bodies served.  A
crawl-wide parse memo should make the two equal.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import repro.crawler.parsing as parsing
from repro.net.transport import LoopbackTransport

__all__ = ["ParseCount", "count_discussion_parses"]


@dataclass
class ParseCount:
    """``parse_comment_page`` calls and the distinct 200 discussion bodies."""

    parses: int = 0
    bodies: set[tuple[int, int]] = field(default_factory=set)

    @property
    def distinct(self) -> int:
        return len(self.bodies)


@contextmanager
def count_discussion_parses() -> Iterator[ParseCount]:
    """Count parses and distinct 200 discussion bodies inside the block.

    Each 200 discussion body is hashed once by the hook, so a timed
    block pays that too.
    """
    count = ParseCount()
    real_parse = parsing.parse_comment_page
    real_send = LoopbackTransport.send

    def counted_parse(text):
        count.parses += 1
        return real_parse(text)

    def recording_send(transport, request, *args, **kwargs):
        response = real_send(transport, request, *args, **kwargs)
        if response.status == 200 and request.path.startswith("/discussion/"):
            count.bodies.add((len(response.body), hash(response.body)))
        return response

    parsing.parse_comment_page = counted_parse
    LoopbackTransport.send = recording_send
    try:
        yield count
    finally:
        parsing.parse_comment_page = real_parse
        LoopbackTransport.send = real_send
