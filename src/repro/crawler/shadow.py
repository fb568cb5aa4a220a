"""Shadow-overlay crawling: NSFW and "offensive" content (§3.2, §4.3.1).

NSFW and offensive comments are invisible to unauthenticated viewers and
carry **no flag in the document body** when visible, so the paper infers
them differentially: re-spider with an authenticated account that has one
view preference enabled at a time, and label any comment not present in
the baseline crawl accordingly.

This module reproduces that three-pass protocol:

1. baseline: unauthenticated crawl (done by :class:`DissenterCrawler`);
2. NSFW pass: session with only the NSFW filter enabled — new comments
   are NSFW-labelled;
3. offensive pass: session with only the offensive filter enabled — new
   comments are "offensive".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crawler.checkpoint import CrawlCheckpoint, coerce_checkpoint
from repro.crawler.parsing import parse_comment_page
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
from repro.platform.apps.dissenter_app import DissenterApp

if TYPE_CHECKING:   # runtime import would cycle through the crawler package
    from repro.store.corpus import CorpusStore

__all__ = ["SHADOW_PASSES", "ShadowCrawler", "ShadowCrawlReport"]

# The two authenticated passes, in execution order: which view filter the
# session enables, and the label applied to comments absent from baseline.
# Public because the sharded engine runs the same protocol per shard.
SHADOW_PASSES: tuple[tuple[str, dict], ...] = (
    ("nsfw", {"nsfw": True, "offensive": False}),
    ("offensive", {"nsfw": False, "offensive": True}),
)
_PASSES = SHADOW_PASSES

# Checkpoint sidecars of the two id lists, fixed for the whole stage.
_BASELINE_SIDECAR = "shadow.baseline_ids"
_URLS_SIDECAR = "shadow.url_ids"
_STORE_KEY = "shadow.store"


@dataclass
class ShadowCrawlReport:
    """Outcome of the differential crawl."""

    nsfw_found: int = 0
    offensive_found: int = 0
    pages_recrawled: int = 0


class ShadowCrawler:
    """Runs the authenticated re-spiders and labels hidden comments.

    Args:
        client: HTTP client (its cookie jar receives the session cookie).
        app: the Dissenter origin — used only to provision sessions, the
            way the paper's authors registered their own accounts and
            flipped the view settings.
    """

    BASE = "https://dissenter.com"

    PARSE_MEMO_SIZE = 8192

    def __init__(self, client: HttpClient, app: DissenterApp):
        self._client = client
        self._app = app
        # Body-keyed parse memo.  The NSFW and offensive passes re-fetch
        # the same pages, and for pages without hidden content the
        # transport's render cache hands back the *same* body object —
        # so the dict lookup short-circuits on identity and the second
        # pass skips the regex parse entirely.  Instance-scoped on
        # purpose: sharing parsed comment objects across crawler
        # instances would alias mutable records between runs.
        self._parse_memo: dict[bytes, list] = {}

    @staticmethod
    def _parse_page(response: Response | None) -> list:
        """Pure parse of a discussion-page response into its comments."""
        if response is None or response.status != 200:
            return []
        _, comments = parse_comment_page(response.text)
        return comments

    def _parse_page_cached(self, response: Response | None) -> list:
        if response is None or response.status != 200:
            return []
        cached = self._parse_memo.get(response.body)
        if cached is None:
            cached = self._parse_page(response)
            if len(self._parse_memo) >= self.PARSE_MEMO_SIZE:
                self._parse_memo.clear()
            self._parse_memo[response.body] = cached
        return cached

    def _merge_labeled(
        self,
        result: CorpusStore,
        comments: list,
        label: str,
        baseline_ids: set[str],
    ) -> int:
        """Label and record comments absent from the baseline crawl."""
        found = 0
        for comment in comments:
            if comment.comment_id in baseline_ids:
                continue
            if comment.comment_id in result.comments:
                continue
            comment.shadow_label = label
            result.add_comment(comment)
            found += 1
        return found

    def _label_page(
        self,
        result: CorpusStore,
        commenturl_id: str,
        label: str,
        baseline_ids: set[str],
    ) -> int:
        """Fetch one discussion page; label comments absent from baseline."""
        response = self._client.get_or_none(
            f"{self.BASE}/discussion/{commenturl_id}"
        )
        return self._merge_labeled(
            result, self._parse_page_cached(response), label, baseline_ids
        )

    def _crawl_pass(
        self,
        result: CorpusStore,
        token: str,
        label: str,
        baseline_ids: set[str],
    ) -> int:
        """One authenticated pass; labels comments absent from baseline."""
        self._client.cookies.set_simple("session", token, "dissenter.com")
        found = 0
        for commenturl_id in list(result.urls):
            found += self._label_page(result, commenturl_id, label, baseline_ids)
        self._client.cookies.clear("dissenter.com")
        return found

    def uncover(
        self,
        result: CorpusStore,
        checkpointer: Checkpointer | None = None,
        resume: CrawlCheckpoint | dict | None = None,
        pool: FetchPool | None = None,
    ) -> ShadowCrawlReport:
        """Run the NSFW and offensive passes over the baseline result.

        Mutates ``result``: hidden comments are added with their
        ``shadow_label`` set.

        With a ``checkpointer``, the pass, per-pass page index, baseline
        comment-id set and URL order are snapshotted so an interrupted
        differential crawl resumes exactly where it stopped.  On
        ``resume`` the checkpoint's corpus replaces the contents of the
        passed-in ``result`` (the caller's reference stays valid), and a
        fresh authenticated session is provisioned for the active pass —
        sessions do not survive the death of the crawling process.
        """
        report = ShadowCrawlReport()
        stage = _PASSES[0][0]
        page_index = 0
        baseline_ids: set[str] | None = None
        url_ids: list[str] | None = None
        found_counts = {"nsfw": 0, "offensive": 0}

        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "shadow")
            pass_names = [name for name, _ in _PASSES] + ["done"]
            if checkpoint.stage not in pass_names:
                raise ValueError(
                    f"cannot resume shadow crawl from stage "
                    f"{checkpoint.stage!r}"
                )
            checkpointer = resume_checkpointer(checkpointer, "shadow")
            stage = checkpoint.stage
            cursor = checkpoint.cursor
            page_index = int(cursor.get("page_index", 0))
            baseline = checkpointer.read_sidecar(
                _BASELINE_SIDECAR, cursor.get("baseline_ids")
            )
            urls = checkpointer.read_sidecar(_URLS_SIDECAR, cursor.get("url_ids"))
            if not isinstance(baseline, list) or not isinstance(urls, list):
                raise ValueError("shadow checkpoint id sidecars must be lists")
            baseline_ids = set(baseline)
            url_ids = urls
            found_counts.update(cursor.get("found", {}))
            if checkpoint.store is not None:
                # In-place replay: the caller's reference stays valid.
                restore_store(checkpointer, _STORE_KEY, result, checkpoint.store)
            if checkpoint.cookies is not None:
                self._client.cookies = CookieJar.from_state(checkpoint.cookies)

        if baseline_ids is None or url_ids is None:
            baseline_ids = set(result.comments)
            url_ids = list(result.urls)
            if checkpointer is not None:
                # Both id lists are fixed for the whole stage: write them
                # once, as sidecars.
                checkpointer.sidecar(_BASELINE_SIDECAR, sorted(baseline_ids))
                checkpointer.sidecar(_URLS_SIDECAR, url_ids)

        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="shadow",
                    stage=stage,
                    cursor={
                        "page_index": page_index,
                        "baseline_ids": checkpointer.ref(_BASELINE_SIDECAR),
                        "url_ids": checkpointer.ref(_URLS_SIDECAR),
                        "found": dict(found_counts),
                    },
                    store=snapshot_store(checkpointer, _STORE_KEY, result),
                    cookies=self._client.cookies.to_state(),
                ).to_payload()
            )

        if pool is None:
            pool = FetchPool(self._client.clock)

        pass_order = [name for name, _ in _PASSES]
        for position, (label, filters) in enumerate(_PASSES):
            if stage == "done" or pass_order.index(stage) > position:
                continue   # this pass completed before the checkpoint
            token = self._app.create_session(**filters)
            self._client.cookies.set_simple("session", token, "dissenter.com")

            def plan(capacity: int) -> list[int]:
                return list(
                    range(page_index, min(page_index + capacity, len(url_ids)))
                )

            def fetch(position_: int) -> Response | None:
                return self._client.get_or_none(
                    f"{self.BASE}/discussion/{url_ids[position_]}"
                )

            def process(position_: int, comments: list) -> None:
                nonlocal page_index
                found_counts[label] += self._merge_labeled(
                    result, comments, label, baseline_ids
                )
                page_index = position_ + 1

            pool.run(
                plan, fetch, process,
                parse=lambda _i, response: self._parse_page_cached(response),
                checkpointer=checkpointer,
            )
            self._client.cookies.clear("dissenter.com")
            page_index = 0
            stage = (
                pass_order[position + 1]
                if position + 1 < len(pass_order)
                else "done"
            )
            if checkpointer is not None:
                checkpointer.flush()

        report.nsfw_found = found_counts["nsfw"]
        report.offensive_found = found_counts["offensive"]
        report.pages_recrawled = 2 * len(url_ids)
        return report

    def verify_sample(
        self, result: CorpusStore, sample_ids: list[str]
    ) -> dict[str, bool]:
        """Manually verify labelled comments (§3.2's 100-comment check).

        For each comment id, confirms it is (a) invisible on the
        unauthenticated single-comment page and (b) visible with the
        matching view preference enabled.  Returns {comment_id: verified}.
        """
        outcomes: dict[str, bool] = {}
        both_token = self._app.create_session(nsfw=True, offensive=True)
        for comment_id in sample_ids:
            comment = result.comments.get(comment_id)
            if comment is None or comment.shadow_label is None:
                outcomes[comment_id] = False
                continue
            self._client.cookies.clear("dissenter.com")
            anonymous = self._client.get_or_none(
                f"{self.BASE}/comment/{comment_id}"
            )
            hidden_anonymously = anonymous is not None and anonymous.status == 404
            self._client.cookies.set_simple(
                "session", both_token, "dissenter.com"
            )
            authed = self._client.get_or_none(
                f"{self.BASE}/comment/{comment_id}"
            )
            visible_authenticated = authed is not None and authed.status == 200
            outcomes[comment_id] = hidden_anonymously and visible_authenticated
        self._client.cookies.clear("dissenter.com")
        return outcomes
