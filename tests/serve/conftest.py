"""Serve-layer fixtures.

The real pipeline stack (crawl + score + core extraction at the tier-1
scale) is built once per session; tests that need clean cache/limiter
counters remount a fresh app over the shared sealed corpus, which costs
microseconds.  A small synthetic store covers the fast unit paths.
"""

from __future__ import annotations

import pytest

from repro.core.scoring import ScoreStore
from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
from repro.net.clock import VirtualClock
from repro.net.http import Request
from repro.net.transport import LoopbackTransport
from repro.perspective.models import PerspectiveModels
from repro.serve import ServeApp, build_serve_stack
from repro.store import CorpusStore

N_USERS = 50
N_URLS = 30
N_COMMENTS = 500


def build_synthetic_store() -> CorpusStore:
    """A small deterministic sealed store (no RNG, no pipeline)."""
    store = CorpusStore(segment_records=128)
    for n in range(N_USERS):
        store.add_user(CrawledUser(
            username=f"user-{n:03d}",
            author_id=f"{n:04x}beef",
            display_name=f"User {n}",
            permissions={"comment": True, "vote": n % 3 != 0, "pro": False},
            view_filters={"nsfw": False, "offensive": n % 7 == 0},
        ))
    for n in range(N_URLS):
        store.add_url(CrawledUrl(
            commenturl_id=f"{n:04x}feed",
            url=f"https://example-{n}.com/page",
            title=f"Page {n}",
            description="",
            upvotes=n,
            downvotes=n % 3,
        ))
    for n in range(N_COMMENTS):
        store.add_comment(CrawledComment(
            comment_id=f"{n:05x}cafe",
            author_id=f"{(n * n) % N_USERS:04x}beef",
            commenturl_id=f"{(n * 7) % N_URLS:04x}feed",
            text=f"comment body {n % 40}",
            parent_comment_id=f"{n - 1:05x}cafe" if n % 5 == 0 and n else None,
            created_at_epoch=1_550_000_000 + n,
            shadow_label=None,
        ))
    return store.seal()


def mount(
    store: CorpusStore,
    score_store: ScoreStore | None = None,
    core_members=("user-001", "user-007"),
    **app_kwargs,
):
    """Mount a fresh ServeApp over ``store`` on a fresh clock."""
    clock = VirtualClock()
    transport = LoopbackTransport(clock=clock, latency=0.05)
    app = ServeApp(
        store, clock,
        score_store=score_store,
        core_members=core_members,
        **app_kwargs,
    )
    transport.register(app)
    return clock, transport, app


def get(transport: LoopbackTransport, url: str, client: str = "test"):
    request = Request(method="GET", url=url)
    request.headers.set("X-Client-Id", client)
    return transport.send(request)


@pytest.fixture(scope="session")
def synthetic_store():
    return build_synthetic_store()


@pytest.fixture(scope="session")
def synthetic_scores(synthetic_store):
    store = ScoreStore(PerspectiveModels())
    store.prime(synthetic_store.texts())
    return store


@pytest.fixture(scope="session")
def serve_stack():
    """The real thing: pipeline-crawled, scored, core-extracted stack."""
    return build_serve_stack(scale=0.002, seed=42)
