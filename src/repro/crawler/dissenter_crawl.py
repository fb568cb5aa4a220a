"""The Dissenter spider (§3.1-3.2).

Stage 1 — account detection: for every Gab username, request the
Dissenter home-page URL and classify by **response size** (a real user
page weighs >10 kB; a missing-user response ~150 bytes).

Stage 2 — home pages: parse username, display name, author-id, bio, and
the set of commented-upon URL ids into the frontier.

Stage 3 — comment pages: for every discovered discussion, record the
commenturl-id, title, description, vote counts, and every visible comment
and reply (comment-id, author-id, parent-id, text).

Stage 4 — hidden metadata: visit one single-comment page per distinct
author and mine the commented-out ``commentAuthor`` JavaScript variable
for language / permissions / view-filter settings.

Every stage is **resumable**: given a :class:`~repro.crawler.runtime.
Checkpointer` the crawler snapshots its frontier, partial result, stats,
cookie jar and stage cursor periodically; given a prior checkpoint it
skips all already-fetched work and continues from the cursor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.crawler.checkpoint import CrawlCheckpoint, coerce_checkpoint
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.parsing import (
    parse_comment_author_blob,
    parse_comment_page,
    parse_user_page,
)
from repro.crawler.runtime import (
    Checkpointer,
    restore_store,
    resume_checkpointer,
    snapshot_store,
)
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.http import Response
from repro.net.pool import FetchPool

if TYPE_CHECKING:   # runtime import is deferred: store imports records,
    from repro.store.corpus import CorpusStore   # records' package imports us

__all__ = ["DissenterCrawler", "SIZE_THRESHOLD"]

SIZE_THRESHOLD = 10_240   # bytes: the paper's ">= 10 kB means account exists"

# crawl()'s resumable stages, in execution order.
_CRAWL_STAGES = ("home_pages", "comment_pages", "metadata", "done")

# Checkpoint key of the partial corpus's sidecars and tail journal.
_STORE_KEY = "dissenter.store"


@dataclass
class CrawlStats:
    """Progress counters for one crawl.

    Increment through :meth:`bump`/:meth:`record_failed` — they hold a
    lock so counters stay exact if merge work ever runs off-thread.
    """

    usernames_probed: int = 0
    accounts_detected: int = 0
    home_pages_parsed: int = 0
    comment_pages_parsed: int = 0
    comment_pages_failed: list[str] = field(default_factory=list)
    author_pages_visited: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: locks aren't comparable or serialisable.
        self._lock = threading.Lock()

    def bump(self, counter: str, amount: int = 1) -> None:
        """Atomically increment one of the integer counters by name."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def record_failed(self, commenturl_id: str) -> None:
        """Atomically append to the failed-pages list."""
        with self._lock:
            self.comment_pages_failed.append(commenturl_id)

    def replace_failed(self, commenturl_ids: list[str]) -> None:
        """Atomically replace the failed-pages list (recrawl bookkeeping)."""
        with self._lock:
            self.comment_pages_failed = list(commenturl_ids)

    def merge(self, other: "CrawlStats") -> None:
        """Fold another stats object into this one (sharded-crawl merge).

        Commutative and associative: integer counters sum, and the
        failed-pages list — whose *sharded* arrival order depends on
        which worker finished first — is re-sorted so an N-way merge
        yields the same value whatever the fold order.  (The sharded
        engine separately restores the sequential failure order from
        per-shard global indexes before the recrawl loop runs; the
        sorted list here is the order-independent set view.)
        """
        with self._lock:
            self.usernames_probed += other.usernames_probed
            self.accounts_detected += other.accounts_detected
            self.home_pages_parsed += other.home_pages_parsed
            self.comment_pages_parsed += other.comment_pages_parsed
            self.author_pages_visited += other.author_pages_visited
            self.comment_pages_failed = sorted(
                self.comment_pages_failed + other.comment_pages_failed
            )

    def to_dict(self) -> dict:
        return {
            "usernames_probed": self.usernames_probed,
            "accounts_detected": self.accounts_detected,
            "home_pages_parsed": self.home_pages_parsed,
            "comment_pages_parsed": self.comment_pages_parsed,
            "comment_pages_failed": list(self.comment_pages_failed),
            "author_pages_visited": self.author_pages_visited,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrawlStats":
        try:
            return cls(
                usernames_probed=int(payload.get("usernames_probed", 0)),
                accounts_detected=int(payload.get("accounts_detected", 0)),
                home_pages_parsed=int(payload.get("home_pages_parsed", 0)),
                comment_pages_parsed=int(payload.get("comment_pages_parsed", 0)),
                comment_pages_failed=list(
                    payload.get("comment_pages_failed", [])
                ),
                author_pages_visited=int(payload.get("author_pages_visited", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed crawl stats: {exc!r}") from exc


class DissenterCrawler:
    """Drives the full §3.1-3.2 crawl over HTTP."""

    BASE = "https://dissenter.com"

    def __init__(self, client: HttpClient):
        self._client = client
        self.stats = CrawlStats()

    def _restore_client_cookies(self, cookies: list | None) -> None:
        if cookies is not None:
            self._client.cookies = CookieJar.from_state(cookies)

    # ------------------------------------------------------------------
    # Stage 1: account detection by response size.
    # ------------------------------------------------------------------

    def detect_accounts(
        self,
        usernames: Iterable[str],
        checkpointer: Checkpointer | None = None,
        resume: CrawlCheckpoint | dict | None = None,
        pool: FetchPool | None = None,
    ) -> list[str]:
        """Return the subset of usernames that have Dissenter accounts.

        With a ``checkpointer``, progress is snapshotted periodically;
        with ``resume`` (a prior "detect" checkpoint) probing continues
        from the saved index — already-probed usernames are never
        re-requested.
        """
        usernames = list(usernames)
        index = 0
        detected: list[str] = []
        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "dissenter")
            if checkpoint.stage != "detect":
                raise ValueError(
                    f"cannot resume detect_accounts from stage "
                    f"{checkpoint.stage!r}"
                )
            index = int(checkpoint.cursor.get("index", 0))
            detected = list(checkpoint.cursor.get("detected", []))
            if checkpoint.stats is not None:
                self.stats = CrawlStats.from_dict(checkpoint.stats)
            self._restore_client_cookies(checkpoint.cookies)

        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="dissenter",
                    stage="detect",
                    cursor={"index": index, "detected": list(detected)},
                    stats=self.stats.to_dict(),
                    cookies=self._client.cookies.to_state(),
                ).to_payload()
            )

        if pool is None:
            pool = FetchPool(self._client.clock)

        def plan(capacity: int) -> list[int]:
            return list(range(index, min(index + capacity, len(usernames))))

        def fetch(position: int) -> Response | None:
            return self._client.get_or_none(
                f"{self.BASE}/user/{usernames[position]}"
            )

        def process(position: int, response: Response | None) -> None:
            nonlocal index
            self.stats.bump("usernames_probed")
            if response is not None and response.size >= SIZE_THRESHOLD:
                detected.append(usernames[position])
                self.stats.bump("accounts_detected")
            index = position + 1

        pool.run(plan, fetch, process, checkpointer=checkpointer)
        return detected

    # ------------------------------------------------------------------
    # Stages 2-4.
    # ------------------------------------------------------------------

    def crawl(
        self,
        usernames: Sequence[str],
        checkpointer: Checkpointer | None = None,
        resume: CrawlCheckpoint | dict | None = None,
        pool: FetchPool | None = None,
        store: CorpusStore | None = None,
    ) -> CorpusStore:
        """Crawl home pages, comment pages, and hidden author metadata.

        ``usernames`` should be the detected Dissenter accounts (stage 1);
        passing undetected names is harmless — their 404s are skipped.
        On ``resume``, the same usernames must be passed again: the saved
        cursor indexes into them.  ``store`` supplies the corpus store to
        fill (a fresh inline-segment store when omitted); on resume the
        checkpoint's corpus is replayed into it.
        """
        from repro.store.corpus import CorpusStore

        usernames = list(usernames)
        result = store if store is not None else CorpusStore()
        frontier: CrawlFrontier[str] = CrawlFrontier()
        stage = "home_pages"
        index = 0                       # home-pages cursor
        meta_index = 0                  # metadata cursor
        visited_authors: set[str] = set()

        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "dissenter")
            if checkpoint.stage not in _CRAWL_STAGES:
                raise ValueError(
                    f"cannot resume crawl from stage {checkpoint.stage!r}"
                )
            stage = checkpoint.stage
            if checkpoint.store is not None:
                restore_store(
                    resume_checkpointer(checkpointer, "dissenter"),
                    _STORE_KEY, result, checkpoint.store,
                )
            if checkpoint.frontier is not None:
                frontier = CrawlFrontier.from_state(checkpoint.frontier)
            if checkpoint.stats is not None:
                self.stats = CrawlStats.from_dict(checkpoint.stats)
            self._restore_client_cookies(checkpoint.cookies)
            index = int(checkpoint.cursor.get("index", 0))
            meta_index = int(checkpoint.cursor.get("meta_index", 0))
            visited_authors = set(checkpoint.cursor.get("visited_authors", []))

        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="dissenter",
                    stage=stage,
                    cursor={
                        "index": index,
                        "meta_index": meta_index,
                        "visited_authors": sorted(visited_authors),
                    },
                    store=snapshot_store(checkpointer, _STORE_KEY, result),
                    frontier=frontier.to_state(),
                    stats=self.stats.to_dict(),
                    cookies=self._client.cookies.to_state(),
                ).to_payload()
            )

        if pool is None:
            pool = FetchPool(self._client.clock)

        if stage == "home_pages":

            def plan_home(capacity: int) -> list[int]:
                return list(
                    range(index, min(index + capacity, len(usernames)))
                )

            def fetch_home(position: int) -> Response | None:
                return self._client.get_or_none(
                    f"{self.BASE}/user/{usernames[position]}"
                )

            def parse_home(position: int, response: Response | None):
                if (
                    response is not None
                    and response.status == 200
                    and response.size >= SIZE_THRESHOLD
                ):
                    return parse_user_page(response.text)
                return None

            def process_home(position: int, user) -> None:
                nonlocal index
                if user is not None:
                    self.stats.bump("home_pages_parsed")
                    result.add_user(user)
                    frontier.add_many(user.commented_url_ids)
                index = position + 1

            pool.run(
                plan_home, fetch_home, process_home,
                parse=parse_home, checkpointer=checkpointer,
            )
            stage = "comment_pages"
            if checkpointer is not None:
                checkpointer.flush()

        if stage == "comment_pages":

            def fetch_page(commenturl_id: str) -> Response | None:
                return self._client.get_or_none(
                    f"{self.BASE}/discussion/{commenturl_id}"
                )

            def process_page(commenturl_id: str, outcome) -> None:
                # The item is popped only now, at merge time: a
                # mid-window checkpoint must still show it queued, and a
                # 429 re-enqueues it behind the already-planned items —
                # the same tail position a sequential crawl would use.
                popped = frontier.pop()
                assert popped == commenturl_id
                self._merge_comment_page(result, frontier, commenturl_id, outcome)

            pool.run(
                lambda capacity: frontier.peek(capacity),
                fetch_page,
                process_page,
                parse=lambda _id, response: self._comment_page_outcome(response),
                checkpointer=checkpointer,
            )
            stage = "metadata"
            if checkpointer is not None:
                checkpointer.flush()

        if stage == "metadata":
            users_by_author = result.users_by_author_id()
            comments = list(result.comments.values())

            def plan_meta(capacity: int) -> list[tuple[int, object]]:
                # Walk forward from the merged cursor, simulating the
                # sequential visited-set so the window never requests an
                # author twice; each job carries the cursor value to
                # install once it merges.
                jobs: list[tuple[int, object]] = []
                planned: set[str] = set()
                position = meta_index
                while position < len(comments) and len(jobs) < capacity:
                    comment = comments[position]
                    position += 1
                    author_id = comment.author_id
                    if author_id in visited_authors or author_id in planned:
                        continue
                    if users_by_author.get(author_id) is None:
                        continue
                    planned.add(author_id)
                    jobs.append((position, comment))
                return jobs

            def fetch_meta(job: tuple[int, object]) -> Response | None:
                _, comment = job
                return self._client.get_or_none(
                    f"{self.BASE}/comment/{comment.comment_id}"
                )

            def process_meta(job: tuple[int, object], response) -> None:
                nonlocal meta_index
                meta_index_after, comment = job
                visited_authors.add(comment.author_id)
                user = users_by_author[comment.author_id]
                if self._merge_author_page(user, response):
                    result.touch_user(user)
                meta_index = meta_index_after

            pool.run(
                plan_meta, fetch_meta, process_meta, checkpointer=checkpointer
            )
            meta_index = len(comments)
            stage = "done"
            if checkpointer is not None:
                checkpointer.flush()

        return result

    @staticmethod
    def _comment_page_outcome(response: Response | None):
        """Pure classify-and-parse of a discussion-page response.

        Returns ``("rate_limited", None)``, ``("failed", None)``, or
        ``("ok", (url, comments))`` — safe to run on a parse worker.
        """
        if response is None or response.status != 200:
            if response is not None and response.status == 429:
                return ("rate_limited", None)
            return ("failed", None)
        url, comments = parse_comment_page(response.text)
        if url is None:
            return ("failed", None)
        return ("ok", (url, comments))

    def _merge_comment_page(
        self,
        result: CorpusStore,
        frontier: CrawlFrontier[str],
        commenturl_id: str,
        outcome,
    ) -> None:
        """Merge one discussion page's outcome (stage 3 unit of work)."""
        kind, payload = outcome
        if kind == "rate_limited":
            # Retry through the frontier; once the retry budget is
            # spent the page must still be accounted as failed, or
            # recrawl_failures() and the validation report would
            # silently undercount missing pages.
            if not frontier.fail(commenturl_id):
                self.stats.record_failed(commenturl_id)
            return
        if kind == "failed":
            self.stats.record_failed(commenturl_id)
            return
        url, comments = payload
        self.stats.bump("comment_pages_parsed")
        result.add_url(url)
        for comment in comments:
            result.add_comment(comment)

    def _fetch_comment_page(
        self,
        result: CorpusStore,
        frontier: CrawlFrontier[str],
        commenturl_id: str,
    ) -> None:
        """Fetch and record one discussion page (sequential form)."""
        response = self._client.get_or_none(
            f"{self.BASE}/discussion/{commenturl_id}"
        )
        outcome = self._comment_page_outcome(response)
        self._merge_comment_page(result, frontier, commenturl_id, outcome)

    def recrawl_failures(self, result: CorpusStore) -> int:
        """Re-request comment pages that failed (§3.2's validation loop).

        Returns the number of pages recovered; successfully recovered
        pages are removed from the failure list.
        """
        recovered = 0
        still_failed: list[str] = []
        for commenturl_id in self.stats.comment_pages_failed:
            response = self._client.get_or_none(
                f"{self.BASE}/discussion/{commenturl_id}"
            )
            if response is None or response.status != 200:
                still_failed.append(commenturl_id)
                continue
            url, comments = parse_comment_page(response.text)
            if url is None:
                still_failed.append(commenturl_id)
                continue
            result.add_url(url)
            for comment in comments:
                result.add_comment(comment)
            recovered += 1
        self.stats.replace_failed(still_failed)
        return recovered

    def _merge_author_page(self, user, response: Response | None) -> bool:
        """Apply one author page's commentAuthor blob to its user.

        Returns True when user fields changed — the caller re-appends
        the user to the store log so replay reproduces the mutation.
        """
        if response is None or response.status != 200:
            return False
        self.stats.bump("author_pages_visited")
        blob = parse_comment_author_blob(response.text)
        if blob is None:
            return False
        user.language = blob.get("language")
        user.permissions = dict(blob.get("permissions", {}))
        user.view_filters = dict(blob.get("filters", {}))
        return True

    def _mine_author_page(
        self,
        result: CorpusStore,
        comment,
        users_by_author: dict,
        visited_authors: set[str],
    ) -> bool:
        """Mine one author's commentAuthor blob (sequential form).

        Returns True when an HTTP request was issued.
        """
        author_id = comment.author_id
        if author_id in visited_authors:
            return False
        user = users_by_author.get(author_id)
        if user is None:
            return False
        visited_authors.add(author_id)
        response = self._client.get_or_none(
            f"{self.BASE}/comment/{comment.comment_id}"
        )
        if self._merge_author_page(user, response):
            result.touch_user(user)
        return True

    def _mine_hidden_metadata(self, result: CorpusStore) -> None:
        """Visit one comment page per author for the commentAuthor blob."""
        users_by_author = result.users_by_author_id()
        visited_authors: set[str] = set()
        for comment in list(result.comments.values()):
            self._mine_author_page(
                result, comment, users_by_author, visited_authors
            )
