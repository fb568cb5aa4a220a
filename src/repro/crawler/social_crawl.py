"""The Gab follower-graph crawl (§3.4).

Dissenter exposes no social network of its own, so the paper used the Gab
API: for every Dissenter user, page through ``…/followers`` and
``…/following``, issuing at most one request per second and sleeping to
the ``X-RateLimit-Reset`` timestamp when the window empties.  Pagination
guarantees complete lists.

The induced *Dissenter* graph (edges between Dissenter users only) is
produced afterwards by :func:`induce_dissenter_graph` — the raw lists
contain plenty of non-Dissenter Gab accounts that must be filtered.  The
graph is a :class:`~repro.graph.csr.CSRGraph` (numpy CSR adjacency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.crawler.checkpoint import active_cursor, cursor_count
from repro.crawler.parsing import parse_account_ids
from repro.crawler.runtime import Checkpointer
from repro.graph.csr import CSRGraph, csr_from_follow_records
from repro.net.client import HttpClient
from repro.net.pool import FetchPool
from repro.net.ratelimit import HeaderRateLimiter

__all__ = ["SocialCrawlResult", "SocialGraphCrawler", "induce_dissenter_graph"]


@dataclass
class SocialCrawlResult:
    """Raw follower/following lists keyed by Gab ID."""

    followers: dict[int, list[int]] = field(default_factory=dict)
    following: dict[int, list[int]] = field(default_factory=dict)
    requests_made: int = 0
    seconds_waited: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot (JSON object keys must be strings)."""
        return {
            "followers": {str(k): v for k, v in self.followers.items()},
            "following": {str(k): v for k, v in self.following.items()},
            "requests_made": self.requests_made,
            "seconds_waited": self.seconds_waited,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SocialCrawlResult":
        try:
            return cls(
                followers={
                    int(k): [int(x) for x in v]
                    for k, v in (payload.get("followers") or {}).items()
                },
                following={
                    int(k): [int(x) for x in v]
                    for k, v in (payload.get("following") or {}).items()
                },
                requests_made=int(payload.get("requests_made", 0)),
                seconds_waited=float(payload.get("seconds_waited", 0.0)),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed social crawl state: {exc!r}") from exc


class SocialGraphCrawler:
    """Walks the paginated Gab relationship API."""

    BASE = "https://gab.com/api/v1/accounts"

    def __init__(self, client: HttpClient, floor_interval: float = 1.0):
        self._client = client
        self._limiter = HeaderRateLimiter(
            client.clock, floor_interval=floor_interval
        )

    def _paged_ids(
        self,
        gab_id: int,
        relation: str,
        checkpointer: Checkpointer | None = None,
    ) -> list[int]:
        collected: list[int] = []
        page = 1
        while True:
            self._limiter.before_request()
            response = self._client.get_or_none(
                f"{self.BASE}/{gab_id}/{relation}", params={"page": page}
            )
            if checkpointer is not None:
                # The snapshot excludes the in-flight account, so a
                # mid-pagination checkpoint stays consistent: resuming
                # simply re-walks this account's pages.
                checkpointer.tick()
            if response is None:
                break
            self._limiter.after_response(response)
            if response.status == 429:
                continue   # limiter sleeps to the reset on the next call
            if response.status != 200:
                break
            ids = parse_account_ids(response.text)
            if not ids:
                break   # past the last page, or a malformed one
            collected.extend(ids)
            page += 1
        return collected

    def crawl(
        self,
        gab_ids: Iterable[int],
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
        pool: FetchPool | None = None,
    ) -> SocialCrawlResult:
        """Gather both relationship directions for every given account.

        With a ``checkpointer``, completed accounts are snapshotted
        periodically; on ``resume`` the same account sequence must be
        passed again — the saved cursor indexes into it, and accounts
        whose lists are already complete are never re-walked.

        Pagination is a dependent chain (each page decides whether the
        next exists), so an account cannot be split across connections;
        instead each account's whole request chain is one ``pool``
        flight — different accounts overlap on the K virtual connections.
        """
        gab_ids = list(gab_ids)
        result = SocialCrawlResult()
        index = 0
        stage = "relations"
        if resume is not None:
            _, cursor = active_cursor(resume, ("relations", "done"))
            index = cursor_count(cursor, "index")
            result = SocialCrawlResult.from_dict(cursor.get("result") or {})
        prior_requests = result.requests_made
        prior_waited = result.seconds_waited
        before = self._client.stats.requests

        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: {
                    "stage": stage,
                    "cursor": {
                        "index": index,
                        "result": {
                            **result.to_dict(),
                            "requests_made": prior_requests
                            + (self._client.stats.requests - before),
                            "seconds_waited": prior_waited
                            + self._limiter.total_waited,
                        },
                    },
                }
            )

        if pool is None:
            pool = FetchPool(self._client.clock)

        while index < len(gab_ids):
            gab_id = gab_ids[index]
            with pool.flight():
                followers = self._paged_ids(gab_id, "followers", checkpointer)
                following = self._paged_ids(gab_id, "following", checkpointer)
            result.followers[gab_id] = followers
            result.following[gab_id] = following
            index += 1
        result.requests_made = prior_requests + (
            self._client.stats.requests - before
        )
        result.seconds_waited = prior_waited + self._limiter.total_waited
        stage = "done"
        if checkpointer is not None:
            checkpointer.flush()
        return result


def induce_dissenter_graph(
    crawl: SocialCrawlResult,
    dissenter_gab_ids: Iterable[int],
) -> CSRGraph:
    """Induce the Dissenter-only directed follow graph.

    Nodes are the given Dissenter users' Gab IDs (all of them, including
    isolated users — §4.5.1 counts users with no edges).  An edge u -> v
    means u follows v; edges touching non-Dissenter accounts are dropped.

    The CSR node order is sorted Gab IDs — the same canonical order the
    historical networkx build enforced on insertion — so degree arrays
    and tie-broken top-K report lines are unchanged by the engine swap.
    """
    return csr_from_follow_records(crawl, dissenter_gab_ids)
