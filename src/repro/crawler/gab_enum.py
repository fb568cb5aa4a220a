"""Exhaustive Gab user enumeration through the accounts API (§3.1).

Gab IDs are a counter starting at 1, so the paper queried
``/api/v1/accounts/<id>`` for every ID between 1 and a known upper bound
(their own test account's ID).  The API returns an error for unallocated
IDs, which makes the enumeration self-terminating: after a long enough run
of consecutive misses past the last hit, the ID space is exhausted.

This crawler reproduces that, driving a :class:`HeaderRateLimiter` off the
``X-RateLimit-*`` response headers exactly as §3.4 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crawler.checkpoint import active_cursor, cursor_count
from repro.crawler.parsing import parse_gab_account
from repro.crawler.records import CrawledGabAccount
from repro.crawler.runtime import Checkpointer, resume_checkpointer
from repro.net.client import HttpClient
from repro.net.pool import FetchPool
from repro.net.ratelimit import HeaderRateLimiter

__all__ = ["GabEnumerator", "GabEnumerationResult"]


@dataclass
class GabEnumerationResult:
    """Outcome of the ID-space sweep."""

    accounts: list[CrawledGabAccount] = field(default_factory=list)
    ids_probed: int = 0
    misses: int = 0

    def by_username(self) -> dict[str, CrawledGabAccount]:
        return {a.username: a for a in self.accounts}

    def usernames(self) -> list[str]:
        return [a.username for a in self.accounts]

    def to_dict(self) -> dict:
        """JSON-ready snapshot (checkpointing)."""
        return {
            "accounts": [_account_payload(a) for a in self.accounts],
            "ids_probed": self.ids_probed,
            "misses": self.misses,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GabEnumerationResult":
        try:
            return cls(
                accounts=[
                    _account_from_payload(entry)
                    for entry in payload.get("accounts", [])
                ],
                ids_probed=int(payload.get("ids_probed", 0)),
                misses=int(payload.get("misses", 0)),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed enumeration state: {exc!r}") from exc


def _account_payload(account: CrawledGabAccount) -> dict:
    return {
        "gab_id": account.gab_id,
        "username": account.username,
        "display_name": account.display_name,
        "created_at_iso": account.created_at_iso,
        "followers_count": account.followers_count,
        "following_count": account.following_count,
    }


def _account_from_payload(entry: dict) -> CrawledGabAccount:
    return CrawledGabAccount(
        gab_id=int(entry["gab_id"]),
        username=entry["username"],
        display_name=entry.get("display_name", ""),
        created_at_iso=entry.get("created_at_iso", ""),
        followers_count=int(entry.get("followers_count", 0)),
        following_count=int(entry.get("following_count", 0)),
    )


#: Checkpoint journal of the accounts found so far, appended per tick.
ACCOUNTS_JOURNAL = "gab_enum.accounts"


class GabEnumerator:
    """Sweeps the Gab ID space through the JSON API.

    Args:
        client: HTTP client bound to the loopback transport.
        floor_interval: minimum seconds between requests (the paper used
            at most one request per second against the live service; the
            default here is lower because the virtual clock makes pacing
            free — the A1 ablation raises it to measure the cost).
        stop_after_misses: consecutive unallocated IDs after the last hit
            that terminate the sweep.
    """

    GAB_API = "https://gab.com/api/v1/accounts/{gab_id}"

    def __init__(
        self,
        client: HttpClient,
        floor_interval: float = 0.0,
        stop_after_misses: int = 500,
    ):
        self._client = client
        self._limiter = HeaderRateLimiter(
            client.clock, floor_interval=floor_interval
        )
        self._stop_after_misses = stop_after_misses

    def _fetch_account(self, gab_id: int) -> CrawledGabAccount | None:
        # After a 429 the limiter waits for the reset; retry once then.
        for _attempt in range(2):
            self._limiter.before_request()
            response = self._client.get_or_none(self.GAB_API.format(gab_id=gab_id))
            if response is None:
                return None
            self._limiter.after_response(response)
            if response.status != 429:
                break
        if response.status != 200:
            return None
        return parse_gab_account(response.text)

    def restore(
        self, resume: dict, checkpointer: Checkpointer | None
    ) -> tuple[int, int, GabEnumerationResult]:
        """Load checkpoint fields: (last probed ID, consecutive misses, result).

        Raises:
            ValueError: malformed fields or accounts journal.
        """
        _, cursor = active_cursor(resume, ("enumerate", "done"))
        checkpointer = resume_checkpointer(checkpointer, "gab_enum")
        gab_id = cursor_count(cursor, "gab_id")
        consecutive_misses = cursor_count(cursor, "consecutive_misses")
        result = GabEnumerationResult.from_dict({
            "accounts": checkpointer.open_journal(
                ACCOUNTS_JOURNAL, cursor.get("accounts")
            ),
            "ids_probed": cursor.get("ids_probed", 0),
            "misses": cursor.get("misses", 0),
        })
        return gab_id, consecutive_misses, result

    def enumerate(
        self,
        max_id: int | None = None,
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
        pool: FetchPool | None = None,
    ) -> GabEnumerationResult:
        """Sweep IDs from 1 upward.

        Args:
            max_id: inclusive upper bound; when None, the sweep stops
                after ``stop_after_misses`` consecutive misses beyond the
                last allocated ID.
            checkpointer: snapshot progress periodically.
            resume: the sweep's checkpoint fields; it continues
                from the saved ID — already-probed IDs are never
                re-requested.
            pool: fetch engine to issue probes through; a fresh
                single-connection pool (sequential behavior) when omitted.
        """
        result = GabEnumerationResult()
        gab_id = 0
        consecutive_misses = 0
        stage = "enumerate"
        if resume is not None:
            gab_id, consecutive_misses, result = self.restore(resume, checkpointer)

        if checkpointer is not None:
            # The account list only grows: each tick appends the accounts
            # found since the last one to a journal.
            checkpointer.set_provider(
                lambda: {
                    "stage": stage,
                    "cursor": {
                        "gab_id": gab_id,
                        "consecutive_misses": consecutive_misses,
                        "ids_probed": result.ids_probed,
                        "misses": result.misses,
                        "accounts": checkpointer.journal(
                            ACCOUNTS_JOURNAL, result.accounts, _account_payload
                        ),
                    },
                }
            )

        if pool is None:
            pool = FetchPool(self._client.clock)

        def plan(capacity: int) -> list[int]:
            # Never over-plans: with no max_id a sequential sweep is
            # guaranteed at least (stop_after_misses - misses) more
            # probes whatever their outcomes, so a window of that size
            # cannot fetch an ID the sequential sweep would not.
            if max_id is not None:
                remaining = max_id - gab_id
            else:
                remaining = self._stop_after_misses - consecutive_misses
            window = min(capacity, remaining)
            if window <= 0:
                return []
            return [gab_id + offset + 1 for offset in range(window)]

        def process(probe_id: int, account: CrawledGabAccount | None) -> None:
            nonlocal gab_id, consecutive_misses
            result.ids_probed += 1
            if account is None:
                result.misses += 1
                consecutive_misses += 1
            else:
                consecutive_misses = 0
                result.accounts.append(account)
            gab_id = probe_id

        pool.run(plan, self._fetch_account, process, checkpointer=checkpointer)
        stage = "done"
        if checkpointer is not None:
            checkpointer.flush()
        return result
