"""Covert-channel analysis of non-web comment anchors (§6, future work).

The paper's conclusions observe that a Dissenter thread can be anchored to
*any* string — ``file://`` paths (leaking the commenter's filesystem),
browser-internal pages (``chrome://startpage/``), or URLs that never
existed at all — "suggesting the possibility for a potential form of
covert channel, a hidden conversation within a hidden conversation".  The
authors leave its investigation to future research; this module implements
it.

A covert-channel *candidate* is a commented anchor that cannot correspond
to public web content:

* non-network schemes (``file://``, ``chrome://``, ...),
* network URLs whose origin was never resolvable during the crawl
  (distinguishable here because the crawler knows which hosts answered).

Candidates are then scored on conversation-shape heuristics: covert use
implies a small closed set of participants talking *to each other* (high
reply fraction, few distinct authors) rather than broadcast commentary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.store import CorpusStore

__all__ = ["CovertAnchor", "CovertChannelAnalysis", "find_covert_channels"]

NETWORK_SCHEMES = frozenset({"http", "https"})


@dataclass(frozen=True)
class CovertAnchor:
    """One suspicious comment anchor."""

    commenturl_id: str
    url: str
    scheme: str
    reason: str                 # non-network-scheme | unresolvable-host
    n_comments: int
    n_authors: int
    reply_fraction: float

    @property
    def closed_conversation(self) -> bool:
        """Few participants and reply-heavy: the covert-use signature."""
        return self.n_authors <= 3 and self.reply_fraction >= 0.5


@dataclass
class CovertChannelAnalysis:
    """All covert-channel candidates in a crawl."""

    anchors: list[CovertAnchor] = field(default_factory=list)
    total_urls: int = 0

    @property
    def candidate_count(self) -> int:
        return len(self.anchors)

    @property
    def candidate_fraction(self) -> float:
        return self.candidate_count / self.total_urls if self.total_urls else 0.0

    def by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for anchor in self.anchors:
            counts[anchor.reason] = counts.get(anchor.reason, 0) + 1
        return counts

    def closed_conversations(self) -> list[CovertAnchor]:
        return [a for a in self.anchors if a.closed_conversation]


def find_covert_channels(
    result: CorpusStore,
    resolvable_hosts: set[str] | None = None,
) -> CovertChannelAnalysis:
    """Scan a crawled corpus for covert-channel candidate anchors.

    Args:
        result: the crawl corpus.
        resolvable_hosts: hosts known to answer HTTP during the crawl;
            when provided, network URLs on unknown hosts are flagged as
            ``unresolvable-host`` candidates (fictitious URLs).  When
            None, only non-network schemes are flagged — the conservative
            setting, since the paper notes dead and fictitious URLs are
            hard to tell apart.
    """
    analysis = CovertChannelAnalysis(total_urls=len(result.urls))
    by_url = result.comments_by_url()

    for record in result.urls.values():
        scheme = record.url.split(":", 1)[0].lower() if ":" in record.url else ""
        reason: str | None = None
        if scheme not in NETWORK_SCHEMES:
            reason = "non-network-scheme"
        elif resolvable_hosts is not None:
            host = urlsplit(record.url).netloc.lower()
            if host and host not in resolvable_hosts:
                reason = "unresolvable-host"
        if reason is None:
            continue

        comments = by_url.get(record.commenturl_id, [])
        authors = {c.author_id for c in comments}
        replies = sum(1 for c in comments if c.is_reply)
        analysis.anchors.append(CovertAnchor(
            commenturl_id=record.commenturl_id,
            url=record.url,
            scheme=scheme,
            reason=reason,
            n_comments=len(comments),
            n_authors=len(authors),
            reply_fraction=replies / len(comments) if comments else 0.0,
        ))
    return analysis
