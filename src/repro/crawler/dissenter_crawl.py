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

Stages 2-4 are one method each (:meth:`DissenterCrawler.crawl_home_pages`,
:meth:`~DissenterCrawler.crawl_comment_pages`,
:meth:`~DissenterCrawler.crawl_metadata`) whose cursor lives in a
caller-owned :class:`CrawlState`; :meth:`DissenterCrawler.crawl` runs
them in order.

Every stage is **resumable**: given a :class:`~repro.crawler.runtime.
Checkpointer` the crawler snapshots its frontier, partial result, stats
and stage cursor periodically; given those fields back it skips all
already-fetched work and continues from the cursor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.crawler.checkpoint import active_cursor, cursor_count, cursor_strings
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.parsing import (
    PageParseMemo,
    ParsedPage,
    parse_comment_author_blob,
    parse_user_page,
)
from repro.crawler.records import CrawledUser
from repro.crawler.runtime import (
    Checkpointer,
    restore_store,
    resume_checkpointer,
    snapshot_store,
)
from repro.net.client import HttpClient
from repro.net.http import Response
from repro.net.pool import FetchPool

if TYPE_CHECKING:   # runtime import is deferred: store imports records,
    from repro.store.corpus import CorpusStore   # records' package imports us

__all__ = ["CrawlState", "CrawlStats", "DissenterCrawler", "SIZE_THRESHOLD"]

SIZE_THRESHOLD = 10_240   # bytes: the paper's ">= 10 kB means account exists"

# crawl()'s resumable stages, in execution order.
_CRAWL_STAGES = ("home_pages", "comment_pages", "metadata", "done")

# Checkpoint key of the partial corpus's sidecars and tail journal.
_STORE_KEY = "dissenter.store"


@dataclass
class CrawlStats:
    """Progress counters for one crawl.

    Plain attributes, written by the one thread that drives the crawl.
    """

    usernames_probed: int = 0
    accounts_detected: int = 0
    home_pages_parsed: int = 0
    comment_pages_parsed: int = 0
    comment_pages_failed: list[str] = field(default_factory=list)
    author_pages_visited: int = 0

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
        """Rebuild stats from :meth:`to_dict` output.

        Raises:
            ValueError: the payload is malformed.
        """
        if not isinstance(payload, dict):
            raise ValueError("crawl stats must be an object")
        failed = payload.get("comment_pages_failed", [])
        if not isinstance(failed, list) or not all(
            isinstance(url_id, str) for url_id in failed
        ):
            raise ValueError("crawl stats comment_pages_failed must be a list of strings")
        try:
            return cls(
                usernames_probed=int(payload.get("usernames_probed", 0)),
                accounts_detected=int(payload.get("accounts_detected", 0)),
                home_pages_parsed=int(payload.get("home_pages_parsed", 0)),
                comment_pages_parsed=int(payload.get("comment_pages_parsed", 0)),
                comment_pages_failed=list(failed),
                author_pages_visited=int(payload.get("author_pages_visited", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed crawl stats: {exc!r}") from exc


@dataclass
class CrawlState:
    """Where stages 2-4 stand.

    Owned by whoever runs the phase methods: :meth:`DissenterCrawler.
    crawl` keeps one.
    """

    stage: str = "home_pages"          # the active stage, or "done"
    index: int = 0                     # home pages: usernames done
    frontier: CrawlFrontier[str] = field(default_factory=CrawlFrontier)
    meta_index: int = 0                # metadata: comment positions done
    visited_authors: set[str] = field(default_factory=set)


class DissenterCrawler:
    """Drives the full §3.1-3.2 crawl over HTTP.

    Args:
        client: HTTP client.
        parse_memo: the crawl's discussion-page parse memo, shared with
            the shadow passes (a private one when omitted).
    """

    BASE = "https://dissenter.com"

    def __init__(self, client: HttpClient, parse_memo: PageParseMemo | None = None):
        self._client = client
        self.stats = CrawlStats()
        self.parse_memo = parse_memo if parse_memo is not None else PageParseMemo()

    # ------------------------------------------------------------------
    # Stage 1: account detection by response size.
    # ------------------------------------------------------------------

    def restore_detect(self, resume: dict) -> tuple[int, list[str]]:
        """Load "detect" checkpoint fields: (probe index, accounts detected so far).

        Raises:
            ValueError: malformed fields.
        """
        _, cursor = active_cursor(resume, ("detect",))
        index = cursor_count(cursor, "index")
        detected = cursor_strings(cursor, "detected")
        if resume.get("stats") is not None:
            self.stats = CrawlStats.from_dict(resume["stats"])
        return index, detected

    def detect_accounts(
        self,
        usernames: Iterable[str],
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
        pool: FetchPool | None = None,
    ) -> list[str]:
        """Return the subset of usernames that have Dissenter accounts.

        With a ``checkpointer``, progress is snapshotted periodically;
        with ``resume`` (its "detect" checkpoint fields) probing continues
        from the saved index — already-probed usernames are never
        re-requested.
        """
        usernames = list(usernames)
        index = 0
        detected: list[str] = []
        if resume is not None:
            index, detected = self.restore_detect(resume)

        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: {
                    "stage": "detect",
                    "cursor": {"index": index, "detected": list(detected)},
                    "stats": self.stats.to_dict(),
                }
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
            self.stats.usernames_probed += 1
            if response is not None and response.size >= SIZE_THRESHOLD:
                detected.append(usernames[position])
                self.stats.accounts_detected += 1
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
        resume: dict | None = None,
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
        state = (
            self.restore(resume, result, checkpointer)
            if resume is not None
            else CrawlState()
        )
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: self.checkpoint(state, result, checkpointer)
            )
        if pool is None:
            pool = FetchPool(self._client.clock)

        if state.stage == "home_pages":
            self.crawl_home_pages(usernames, result, state, pool, checkpointer)
            if checkpointer is not None:
                checkpointer.flush()
        if state.stage == "comment_pages":
            self.crawl_comment_pages(result, state, pool, checkpointer)
            if checkpointer is not None:
                checkpointer.flush()
        if state.stage == "metadata":
            self.crawl_metadata(
                self.metadata_jobs(result), result, state, pool, checkpointer
            )
            state.meta_index = len(result.comments)   # the walk passed them all
            if checkpointer is not None:
                checkpointer.flush()
        return result

    def checkpoint(
        self, state: CrawlState, store: CorpusStore, checkpointer: Checkpointer
    ) -> dict:
        """The checkpoint fields of stages 2-4 (a provider's value)."""
        return {
            "stage": state.stage,
            "cursor": {
                "index": state.index,
                "meta_index": state.meta_index,
                "visited_authors": sorted(state.visited_authors),
            },
            "store": snapshot_store(checkpointer, _STORE_KEY, store),
            "frontier": state.frontier.to_state(),
            "stats": self.stats.to_dict(),
        }

    def restore(
        self,
        resume: dict,
        store: CorpusStore,
        checkpointer: Checkpointer | None,
    ) -> CrawlState:
        """Load :meth:`checkpoint` fields into ``store`` and this crawler.

        Raises:
            ValueError: malformed fields.
        """
        stage, cursor = active_cursor(resume, _CRAWL_STAGES)
        state = CrawlState(
            stage=stage,
            index=cursor_count(cursor, "index"),
            meta_index=cursor_count(cursor, "meta_index"),
            visited_authors=set(cursor_strings(cursor, "visited_authors")),
        )
        if resume.get("store") is not None:
            restore_store(
                resume_checkpointer(checkpointer, "dissenter"),
                _STORE_KEY, store, resume["store"],
            )
        if resume.get("frontier") is not None:
            state.frontier = CrawlFrontier.from_state(resume["frontier"])
        if resume.get("stats") is not None:
            self.stats = CrawlStats.from_dict(resume["stats"])
        return state

    # Each phase method runs one stage over an explicit job list, keeps
    # its cursor in the caller's ``state`` and advances ``state.stage``
    # when done.

    def crawl_home_pages(
        self,
        usernames: Sequence[str],
        store: CorpusStore,
        state: CrawlState,
        pool: FetchPool,
        checkpointer: Checkpointer | None = None,
    ) -> None:
        """Stage 2: each user's home page, from ``state.index`` on.

        Jobs are positions in ``usernames``; a user's commented URL ids
        join ``state.frontier``.
        """

        def plan(capacity: int) -> list[int]:
            return list(
                range(state.index, min(state.index + capacity, len(usernames)))
            )

        def fetch(position: int) -> Response | None:
            return self._client.get_or_none(
                f"{self.BASE}/user/{usernames[position]}"
            )

        def process(position: int, response: Response | None) -> None:
            if (
                response is not None
                and response.status == 200
                and response.size >= SIZE_THRESHOLD
            ):
                user = parse_user_page(response.text)
                if user is not None:
                    self.stats.home_pages_parsed += 1
                    store.add_user(user)
                    state.frontier.add_many(user.commented_url_ids)
            state.index = position + 1

        pool.run(plan, fetch, process, checkpointer=checkpointer)
        state.stage = "comment_pages"

    def crawl_comment_pages(
        self,
        store: CorpusStore,
        state: CrawlState,
        pool: FetchPool,
        checkpointer: Checkpointer | None = None,
    ) -> None:
        """Stage 3: fetch every discussion page ``state.frontier`` holds.

        Jobs are commenturl ids.  A 429 re-queues its page until the
        frontier's retry budget is spent; a page that fails for good is
        recorded in ``stats.comment_pages_failed``.
        """
        frontier = state.frontier

        def fetch(commenturl_id: str) -> Response | None:
            return self._client.get_or_none(
                f"{self.BASE}/discussion/{commenturl_id}"
            )

        def process(commenturl_id: str, response: Response | None) -> None:
            # The item is popped only now, at merge time: a mid-window
            # checkpoint must still show it queued, and a 429 re-enqueues
            # it behind the already-planned items — the same tail
            # position a sequential crawl would use.
            popped = frontier.pop()
            assert popped == commenturl_id
            kind, page = self._comment_page_outcome(response)
            if kind == "rate_limited":
                # Once the retry budget is spent the page must still be
                # accounted as failed, or recrawl_failures() and the
                # validation report would undercount missing pages.
                if not frontier.fail(commenturl_id):
                    self.stats.comment_pages_failed.append(commenturl_id)
            elif kind == "failed":
                self.stats.comment_pages_failed.append(commenturl_id)
            else:
                self.stats.comment_pages_parsed += 1
                self._add_page(store, page)

        pool.run(
            lambda capacity: frontier.peek(capacity),
            fetch,
            process,
            checkpointer=checkpointer,
        )
        state.stage = "metadata"

    @staticmethod
    def metadata_jobs(store: CorpusStore) -> list[tuple[int, str, CrawledUser]]:
        """Stage 4's jobs: each author's first comment, in corpus order.

        A job is ``(comment position, comment id, user)``; authors
        without a crawled user are skipped.
        """
        users_by_author = store.users_by_author_id()
        planned: set[str] = set()
        jobs: list[tuple[int, str, CrawledUser]] = []
        for position, comment in enumerate(store.comments.values()):
            author_id = comment.author_id
            user = users_by_author.get(author_id)
            if user is None or author_id in planned:
                continue
            planned.add(author_id)
            jobs.append((position, comment.comment_id, user))
        return jobs

    def crawl_metadata(
        self,
        jobs: Sequence[tuple[int, str, CrawledUser]],
        store: CorpusStore,
        state: CrawlState,
        pool: FetchPool,
        checkpointer: Checkpointer | None = None,
    ) -> None:
        """Stage 4: mine each job's commentAuthor blob into its user.

        ``jobs`` come from :meth:`metadata_jobs`, ascending by position;
        those before ``state.meta_index`` are done.  A user whose fields
        changed is re-appended to ``store``'s log, so replay reproduces
        the mutation.
        """
        positions = [position for position, _, _ in jobs]

        def plan(capacity: int) -> Sequence[tuple[int, str, CrawledUser]]:
            start = bisect_left(positions, state.meta_index)
            return jobs[start:start + capacity]

        def fetch(job: tuple[int, str, CrawledUser]) -> Response | None:
            return self._client.get_or_none(f"{self.BASE}/comment/{job[1]}")

        def process(job: tuple[int, str, CrawledUser], response) -> None:
            position, _, user = job
            state.visited_authors.add(user.author_id)
            state.meta_index = position + 1
            if response is None or response.status != 200:
                return
            self.stats.author_pages_visited += 1
            blob = parse_comment_author_blob(response.text)
            if blob is None:
                return
            user.language = blob.get("language")
            user.permissions = dict(blob.get("permissions", {}))
            user.view_filters = dict(blob.get("filters", {}))
            store.touch_user(user)

        pool.run(plan, fetch, process, checkpointer=checkpointer)
        state.stage = "done"

    def _comment_page_outcome(
        self, response: Response | None
    ) -> tuple[str, ParsedPage | None]:
        """Classify and parse a discussion-page response.

        Returns ``(kind, page)``: kind is ``"rate_limited"``,
        ``"failed"`` or ``"ok"``, and ``page`` is the memoised parse of
        a 200 body (None otherwise).
        """
        if response is not None and response.status == 429:
            return ("rate_limited", None)
        page = self.parse_memo.parse(response)
        if page is None or page.url is None:
            return ("failed", page)
        return ("ok", page)

    @staticmethod
    def _add_page(store: CorpusStore, page: ParsedPage) -> None:
        store.add_url(page.url)
        for comment in page.comments:
            store.add_comment(comment)

    def recrawl_failures(self, result: CorpusStore) -> int:
        """Re-request comment pages that failed (§3.2's validation loop).

        Returns the number of pages recovered; successfully recovered
        pages are removed from the failure list.
        """
        recovered = 0
        still_failed: list[str] = []
        for commenturl_id in self.stats.comment_pages_failed:
            kind, page = self._comment_page_outcome(
                self._client.get_or_none(
                    f"{self.BASE}/discussion/{commenturl_id}"
                )
            )
            if kind != "ok":
                still_failed.append(commenturl_id)
                continue
            self._add_page(result, page)
            recovered += 1
        self.stats.comment_pages_failed = still_failed
        return recovered
