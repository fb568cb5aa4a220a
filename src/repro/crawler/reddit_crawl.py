"""Reddit username matching and Pushshift history pulls (§4.4.1).

The paper queried Reddit for accounts with the same username as each
Dissenter user (56% matched) and then pulled each matched account's full
comment history from Pushshift.  It acknowledges the method's false
positives, citing a prior-work precision lower bound of 0.6 — the
matching here is equally naive by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.crawler.parsing import parse_pushshift_history
from repro.net.client import HttpClient

__all__ = ["RedditMatchResult", "RedditMatcher"]


@dataclass
class RedditMatchResult:
    """Matched accounts and their comment data."""

    matched_usernames: list[str] = field(default_factory=list)
    comment_counts: dict[str, int] = field(default_factory=dict)
    sample_comments: dict[str, list[str]] = field(default_factory=dict)

    @property
    def total_comments(self) -> int:
        return sum(self.comment_counts.values())

    def commenters(self) -> list[str]:
        """Matched accounts that have posted at least one Reddit comment."""
        return [u for u, n in self.comment_counts.items() if n > 0]


class RedditMatcher:
    """Matches Dissenter usernames on Reddit and pulls Pushshift data."""

    ABOUT = "https://reddit.com/user/{username}/about.json"
    PUSHSHIFT = "https://api.pushshift.io/reddit/search/comment/"

    def __init__(self, client: HttpClient, sample_size: int = 100):
        self._client = client
        self._sample_size = sample_size

    def exists_on_reddit(self, username: str) -> bool:
        """Existence probe against reddit.com."""
        response = self._client.get_or_none(
            self.ABOUT.format(username=username)
        )
        return response is not None and response.status == 200

    def pull_history(self, username: str) -> tuple[int, list[str]]:
        """Total comment count and a text sample from Pushshift.

        A failed request or a malformed 200 is a miss: ``(0, [])``.
        """
        response = self._client.get_or_none(
            self.PUSHSHIFT,
            params={"author": username, "size": self._sample_size},
        )
        if response is None or response.status != 200:
            return 0, []
        history = parse_pushshift_history(response.text)
        return history if history is not None else (0, [])

    def match(self, usernames: Iterable[str]) -> RedditMatchResult:
        """Run the full matching + history pull."""
        result = RedditMatchResult()
        for username in usernames:
            if not self.exists_on_reddit(username):
                continue
            result.matched_usernames.append(username)
            total, texts = self.pull_history(username)
            result.comment_counts[username] = total
            if texts:
                result.sample_comments[username] = texts
        return result
