"""The abandoned seed-based username harvest (§3.1).

Before settling on exhaustive ID enumeration, the paper's authors tried
"a combination of mining Pushshift.io and crawling the most popular Gab
account's ('@a' ...) followers, which is automatically followed by new
users ... However, this methodology failed to uncover users that hadn't
posted on Gab, had manually ceased following @a, and our results suggested
a period of time before the @a handle was automatically followed by new
users."

This module implements that discarded methodology so its incompleteness
can be *measured* against the enumeration (ablation A3): mine the Gab
author archive from Pushshift and union it with @a's follower list from
the Gab API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crawler.parsing import (
    parse_account_usernames,
    parse_gab_account,
    parse_pushshift_authors,
)
from repro.net.client import HttpClient
from repro.net.ratelimit import HeaderRateLimiter

__all__ = ["SeedDiscovery", "SeedDiscoveryResult"]


@dataclass
class SeedDiscoveryResult:
    """Usernames found by each seed source."""

    pushshift_authors: set[str] = field(default_factory=set)
    torba_followers: set[str] = field(default_factory=set)

    @property
    def discovered(self) -> set[str]:
        return self.pushshift_authors | self.torba_followers

    def coverage_of(self, reference: set[str]) -> float:
        """Fraction of a reference username set this discovery found."""
        if not reference:
            return 0.0
        return len(self.discovered & reference) / len(reference)


class SeedDiscovery:
    """Runs the Pushshift + @a-followers harvest."""

    PUSHSHIFT = "https://api.pushshift.io/gab/search/submission/"
    GAB_API = "https://gab.com/api/v1/accounts"
    TORBA_USERNAME = "a"

    def __init__(self, client: HttpClient, floor_interval: float = 0.0):
        self._client = client
        self._limiter = HeaderRateLimiter(
            client.clock, floor_interval=floor_interval
        )

    def mine_pushshift(self) -> set[str]:
        """Page through the Gab author archive (a malformed page ends it)."""
        authors: set[str] = set()
        page = 1
        while True:
            response = self._client.get_or_none(
                self.PUSHSHIFT, params={"agg": "author", "page": page}
            )
            if response is None or response.status != 200:
                break
            window = parse_pushshift_authors(response.text)
            if not window:
                break
            authors.update(window)
            page += 1
        return authors

    def _find_torba_id(self) -> int | None:
        """Find @a's numeric ID by probing the first few counter values.

        (@a is among the very first accounts; the paper knew its handle.)
        """
        for gab_id in range(1, 25):
            self._limiter.before_request()
            response = self._client.get_or_none(f"{self.GAB_API}/{gab_id}")
            if response is None:
                continue
            self._limiter.after_response(response)
            if response.status != 200:
                continue
            account = parse_gab_account(response.text)
            if account is not None and account.username == self.TORBA_USERNAME:
                return gab_id
        return None

    def crawl_torba_followers(self) -> set[str]:
        """Collect @a's paginated follower list."""
        torba_id = self._find_torba_id()
        if torba_id is None:
            return set()
        followers: set[str] = set()
        page = 1
        while True:
            self._limiter.before_request()
            response = self._client.get_or_none(
                f"{self.GAB_API}/{torba_id}/followers", params={"page": page}
            )
            if response is None:
                break
            self._limiter.after_response(response)
            if response.status != 200:
                break
            names = parse_account_usernames(response.text)
            if not names:
                break
            followers.update(names)
            page += 1
        return followers

    def run(self) -> SeedDiscoveryResult:
        """Full seed harvest: Pushshift authors ∪ @a followers."""
        return SeedDiscoveryResult(
            pushshift_authors=self.mine_pushshift(),
            torba_followers=self.crawl_torba_followers(),
        )
