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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.crawler.checkpoint import active_cursor, cursor_count
from repro.crawler.parsing import PageParseMemo
from repro.crawler.runtime import (
    Checkpointer,
    restore_store,
    resume_checkpointer,
    snapshot_store,
)
from repro.net.client import HttpClient
from repro.net.http import Response
from repro.net.pool import FetchPool

if TYPE_CHECKING:
    # The origin app is an annotation only: importing it at run time
    # loads the world generators into every ``import repro.store``.
    from repro.platform.apps.dissenter_app import DissenterApp
    # A runtime import would cycle through the crawler package.
    from repro.store.corpus import CorpusStore

__all__ = ["PASS_NAMES", "SHADOW_PASSES", "ShadowCrawler", "ShadowCrawlReport", "ShadowState"]

# The two authenticated passes, in execution order: which view filter the
# session enables, and the label applied to comments absent from baseline.
SHADOW_PASSES: tuple[tuple[str, dict], ...] = (
    ("nsfw", {"nsfw": True, "offensive": False}),
    ("offensive", {"nsfw": False, "offensive": True}),
)
# The pass labels alone, in execution order.
PASS_NAMES = tuple(name for name, _ in SHADOW_PASSES)

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


@dataclass
class ShadowState:
    """Where the authenticated passes stand; owned by the caller.

    A comment on a page of ``url_ids`` is hidden when its id is not in
    ``baseline_ids``.  Comment ids are unique to their URL, so the
    baseline need only cover the comments of ``url_ids``.
    """

    url_ids: list[str]                 # the pages every pass visits, in order
    baseline_ids: set[str]             # comments the baseline crawl saw
    stage: str = PASS_NAMES[0]         # the active pass, or "done"
    page_index: int = 0                # pages of the active pass done
    found: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(PASS_NAMES, 0)
    )


class ShadowCrawler:
    """Runs the authenticated re-spiders and labels hidden comments.

    Most re-spidered pages carry no hidden content, so their bytes equal
    the page the baseline crawl (or the NSFW pass) already parsed.  The
    passes read their parses from ``parse_memo``, the crawl-wide
    :class:`~repro.crawler.parsing.PageParseMemo` that
    :meth:`~repro.core.pipeline.ReproductionPipeline.stage_crawl` shares
    with the baseline crawler; ``run_pass`` parses through it in its
    merge step.  A memo hit returns the baseline's own comment records,
    which the pass skips (they are in the baseline), so a baseline
    comment never gains a ``shadow_label``.

    Args:
        client: HTTP client (its cookie jar receives the session cookie).
        app: the Dissenter origin — used only to provision sessions, the
            way the paper's authors registered their own accounts and
            flipped the view settings.
        parse_memo: the crawl's discussion-page parse memo (a private
            one when omitted).
    """

    BASE = "https://dissenter.com"

    def __init__(
        self,
        client: HttpClient,
        app: DissenterApp,
        parse_memo: PageParseMemo | None = None,
    ):
        self._client = client
        self._app = app
        self.parse_memo = parse_memo if parse_memo is not None else PageParseMemo()

    def uncover(
        self,
        result: CorpusStore,
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
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
        state = (
            self.restore(resume, result, checkpointer)
            if resume is not None
            else ShadowState(list(result.urls), set(result.comments))
        )
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: self.checkpoint(state, result, checkpointer)
            )
        if pool is None:
            pool = FetchPool(self._client.clock)
        while state.stage != "done":
            self.run_pass(result, state, pool, checkpointer)
            if checkpointer is not None:
                checkpointer.flush()
        return ShadowCrawlReport(
            nsfw_found=state.found["nsfw"],
            offensive_found=state.found["offensive"],
            pages_recrawled=len(SHADOW_PASSES) * len(state.url_ids),
        )

    def checkpoint(
        self, state: ShadowState, store: CorpusStore, checkpointer: Checkpointer
    ) -> dict:
        """The checkpoint fields of the passes (a provider's value).

        Both id lists are fixed for the whole stage: they are written
        once, as sidecars.
        """
        if _BASELINE_SIDECAR not in checkpointer:
            checkpointer.sidecar(_BASELINE_SIDECAR, sorted(state.baseline_ids))
            checkpointer.sidecar(_URLS_SIDECAR, state.url_ids)
        return {
            "stage": state.stage,
            "cursor": {
                "page_index": state.page_index,
                "baseline_ids": checkpointer.ref(_BASELINE_SIDECAR),
                "url_ids": checkpointer.ref(_URLS_SIDECAR),
                "found": dict(state.found),
            },
            "store": snapshot_store(checkpointer, _STORE_KEY, store),
        }

    def restore(
        self,
        resume: dict,
        store: CorpusStore,
        checkpointer: Checkpointer | None,
    ) -> ShadowState:
        """Load :meth:`checkpoint` fields: their corpus replaces the
        contents of ``store`` in place; returns their state.

        Raises:
            ValueError: the fields or their sidecars are malformed.
        """
        stage, cursor = active_cursor(resume, (*PASS_NAMES, "done"))
        checkpointer = resume_checkpointer(checkpointer, "shadow")
        baseline = checkpointer.read_sidecar(
            _BASELINE_SIDECAR, cursor.get("baseline_ids")
        )
        urls = checkpointer.read_sidecar(_URLS_SIDECAR, cursor.get("url_ids"))
        if not isinstance(baseline, list) or not isinstance(urls, list):
            raise ValueError("shadow checkpoint id sidecars must be lists")
        found = cursor.get("found", {})
        if not isinstance(found, dict) or not all(
            isinstance(count, int) for count in found.values()
        ):
            raise ValueError("shadow checkpoint found counts must be integers")
        state = ShadowState(
            urls, set(baseline), stage, cursor_count(cursor, "page_index")
        )
        state.found.update(found)
        if resume.get("store") is not None:
            restore_store(checkpointer, _STORE_KEY, store, resume["store"])
        return state

    def run_pass(
        self,
        store: CorpusStore,
        state: ShadowState,
        pool: FetchPool,
        checkpointer: Checkpointer | None = None,
    ) -> None:
        """Run the active pass (``state.stage``) from ``state.page_index`` on.

        Provisions the pass's authenticated session, labels and records
        the comments of each page absent from the baseline and from
        ``store``, then advances ``state`` to the next pass.  Jobs are
        positions in ``state.url_ids``.
        """
        label = state.stage
        token = self._app.create_session(**dict(SHADOW_PASSES)[label])
        self._client.cookies.set_simple("session", token, "dissenter.com")

        def plan(capacity: int) -> list[int]:
            end = min(state.page_index + capacity, len(state.url_ids))
            return list(range(state.page_index, end))

        def fetch(position: int) -> Response | None:
            return self._client.get_or_none(
                f"{self.BASE}/discussion/{state.url_ids[position]}"
            )

        def process(position: int, response: Response | None) -> None:
            page = self.parse_memo.parse(response)
            for comment in page.comments if page is not None else ():
                if (
                    comment.comment_id in state.baseline_ids
                    or comment.comment_id in store.comments
                ):
                    continue
                comment.shadow_label = label
                store.add_comment(comment)
                state.found[label] += 1
            state.page_index = position + 1

        pool.run(plan, fetch, process, checkpointer=checkpointer)
        self._client.cookies.clear("dissenter.com")
        following = PASS_NAMES.index(label) + 1
        state.page_index = 0
        state.stage = (
            PASS_NAMES[following] if following < len(PASS_NAMES) else "done"
        )

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
