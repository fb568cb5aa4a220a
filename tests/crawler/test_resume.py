"""Crash-safety integration: kill the crawl, resume it, get the same corpus.

The paper's crawl ran for weeks against a live service; a crawl that
cannot survive its process dying would never have finished.  These tests
arm the transport's die-after-K injector at randomized request boundaries
(under a nonzero fault plan, so retries and checkpoints interleave), kill
the pipeline mid-flight — possibly several times in a row — and require
that resuming from the last checkpoint produces a corpus identical to
an uninterrupted run while issuing strictly fewer HTTP requests than
starting over would.
"""

import random

import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import result_to_payload
from repro.crawler.dissenter_crawl import CrawlState, DissenterCrawler
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.runtime import Checkpointer, load_state
from repro.crawler.social_crawl import SocialGraphCrawler
from repro.crawler.youtube_crawl import YouTubeCrawler
from repro.net.client import HttpClient
from repro.net.clock import VirtualClock
from repro.net.cookies import CookieJar
from repro.net.errors import CrawlKilled
from repro.net.http import Response
from repro.net.pool import FetchPool
from repro.net.transport import LoopbackTransport
from repro.platform.config import WorldConfig
from repro.platform.world import build_world
from repro.store import CorpusStore


def _faulty_config() -> WorldConfig:
    return WorldConfig(
        scale=0.0015, seed=31,
        fault_timeout_rate=0.05, fault_error_rate=0.05,
    )


@pytest.fixture(scope="module")
def shared_world():
    """One world for every pipeline in this module (worlds are expensive).

    Each pipeline built from it gets fresh origins, transport, client and
    clock — exactly what a restarted crawler process would see.
    """
    config = _faulty_config()
    return config, build_world(config)


@pytest.fixture(scope="module")
def uninterrupted(shared_world):
    """The reference: a faulty but never-killed full §3 crawl."""
    config, world = shared_world
    pipeline = ReproductionPipeline(config, world=world, with_faults=True)
    artifacts = pipeline.stage_crawl()
    return artifacts, pipeline.origins.transport.requests_attempted


def _run_leg(config, world, state_path, kill_after):
    """One crawler-process lifetime: resume if a checkpoint exists, then
    crawl until completion or injected death.  Returns
    (artifacts_or_None, requests_attempted, checkpoint_saves).
    """
    pipeline = ReproductionPipeline(config, world=world, with_faults=True)
    checkpointer = Checkpointer(state_path, every_pages=5)
    resume = load_state(state_path) if state_path.exists() else None
    pipeline.origins.transport.kill_after(kill_after)
    try:
        artifacts = pipeline.stage_crawl(
            checkpointer=checkpointer, resume=resume
        )
    except CrawlKilled:
        return None, pipeline.origins.transport.requests_attempted, checkpointer.saves
    return artifacts, pipeline.origins.transport.requests_attempted, checkpointer.saves


@pytest.fixture(scope="module")
def killed_and_resumed(shared_world, uninterrupted, tmp_path_factory):
    """Kill the crawl at randomized points, twice, then let it finish."""
    config, world = shared_world
    _, full_requests = uninterrupted
    state_path = tmp_path_factory.mktemp("resume") / "crawl.state.json"

    # Randomized but reproducible kill points, deep enough that several
    # checkpoints have landed, shallow enough that they are guaranteed to
    # fire: a leg resumed after a kill at K still needs at least
    # full_requests - K further requests, so keeping every kill under a
    # third of the total leaves both legs with work to die in.
    rng = random.Random(0xD155)
    kills = [
        rng.randrange(full_requests // 8, full_requests // 3)
        for _ in range(2)
    ]

    legs = []
    for kill_point in kills:
        artifacts, requests, saves = _run_leg(
            config, world, state_path, kill_point
        )
        assert artifacts is None, (
            f"kill at {kill_point} of {full_requests} did not fire"
        )
        legs.append((requests, saves))

    artifacts, final_requests, final_saves = _run_leg(
        config, world, state_path, None
    )
    assert artifacts is not None, "final leg unexpectedly killed"
    return {
        "artifacts": artifacts,
        "final_requests": final_requests,
        "final_saves": final_saves,
        "killed_legs": legs,
        "kills": kills,
        "state_path": state_path,
    }


class TestKillAndResume:
    def test_checkpoints_written_before_death(self, killed_and_resumed):
        for requests, saves in killed_and_resumed["killed_legs"]:
            assert saves > 0, "a killed leg died before its first checkpoint"

    def test_corpus_bit_identical_to_uninterrupted(
        self, killed_and_resumed, uninterrupted
    ):
        reference, _ = uninterrupted
        resumed = killed_and_resumed["artifacts"]
        assert result_to_payload(resumed.corpus) == result_to_payload(
            reference.corpus
        )

    def test_gab_enumeration_identical(self, killed_and_resumed, uninterrupted):
        reference, _ = uninterrupted
        resumed = killed_and_resumed["artifacts"]
        assert resumed.gab_enumeration.accounts == (
            reference.gab_enumeration.accounts
        )
        assert resumed.gab_enumeration.ids_probed == (
            reference.gab_enumeration.ids_probed
        )

    def test_youtube_metadata_identical(self, killed_and_resumed, uninterrupted):
        reference, _ = uninterrupted
        resumed = killed_and_resumed["artifacts"]
        assert resumed.youtube_crawl.to_dict() == reference.youtube_crawl.to_dict()

    def test_social_graph_identical(self, killed_and_resumed, uninterrupted):
        reference, _ = uninterrupted
        resumed = killed_and_resumed["artifacts"]
        assert set(resumed.graph.nodes) == set(reference.graph.nodes)
        assert set(resumed.graph.edges) == set(reference.graph.edges)

    def test_shadow_labels_identical(self, killed_and_resumed, uninterrupted):
        reference, _ = uninterrupted
        resumed = killed_and_resumed["artifacts"]
        assert {
            cid: c.shadow_label for cid, c in resumed.corpus.comments.items()
        } == {
            cid: c.shadow_label
            for cid, c in reference.corpus.comments.items()
        }

    def test_resume_issues_strictly_fewer_requests(
        self, killed_and_resumed, uninterrupted
    ):
        """The resumed leg provably skips already-fetched work."""
        _, full_requests = uninterrupted
        assert killed_and_resumed["final_requests"] < full_requests

    def test_each_resume_leg_shrinks(self, killed_and_resumed, uninterrupted):
        """Later legs start deeper into the crawl than the first kill."""
        _, full_requests = uninterrupted
        first_kill = killed_and_resumed["kills"][0]
        # The final leg never needed to redo the requests that landed in
        # checkpoints before the first kill (minus one cadence window).
        assert (
            killed_and_resumed["final_requests"]
            < full_requests - first_kill // 2
        )


class TestSingleKillRandomPoints:
    @pytest.mark.parametrize("seed", [7, 99, 1234])
    def test_resume_matches_reference(
        self, shared_world, uninterrupted, tmp_path, seed
    ):
        config, world = shared_world
        reference, full_requests = uninterrupted
        rng = random.Random(seed)
        kill_point = rng.randrange(full_requests // 10, full_requests)
        state_path = tmp_path / "crawl.state.json"

        artifacts, _, _ = _run_leg(config, world, state_path, kill_point)
        assert artifacts is None
        artifacts, resumed_requests, _ = _run_leg(
            config, world, state_path, None
        )
        assert artifacts is not None
        assert result_to_payload(artifacts.corpus) == result_to_payload(
            reference.corpus
        )
        assert resumed_requests < full_requests


class TestDieAfterInjector:
    def test_kill_fires_at_exact_request_boundary(self, shared_world):
        config, world = shared_world
        pipeline = ReproductionPipeline(config, world=world)
        pipeline.origins.transport.kill_after(3)
        with pytest.raises(CrawlKilled) as info:
            pipeline.stage_crawl()
        assert pipeline.origins.transport.requests_attempted == 3
        assert info.value.requests_served == 3

    def test_get_or_none_does_not_swallow_kill(self, shared_world):
        config, world = shared_world
        pipeline = ReproductionPipeline(config, world=world)
        pipeline.origins.transport.kill_after(0)
        with pytest.raises(CrawlKilled):
            pipeline.client.get_or_none("https://gab.com/api/v1/accounts/1")

    def test_disarm(self, shared_world):
        config, world = shared_world
        pipeline = ReproductionPipeline(config, world=world)
        pipeline.origins.transport.kill_after(0)
        pipeline.origins.transport.kill_after(None)
        response = pipeline.client.get_or_none(
            "https://gab.com/api/v1/accounts/1"
        )
        assert response is not None


class _StubClient:
    """Minimal HttpClient stand-in returning one fixed status."""

    def __init__(self, status: int):
        self.cookies = CookieJar()
        self.calls = 0
        self._status = status

    def get_or_none(self, url, **kwargs):
        self.calls += 1
        return Response(status=self._status, url=url)


class TestFailedPagesAreRecorded:
    """Regression: pages whose frontier retry budget is exhausted must
    land in ``stats.comment_pages_failed`` — previously they were
    silently dropped, so §3.2's re-request loop never saw them."""

    @staticmethod
    def _crawl_comment_pages(status: int, frontier: CrawlFrontier[str]):
        client = _StubClient(status=status)
        crawler = DissenterCrawler(client)
        state = CrawlState("comment_pages", frontier=frontier)
        crawler.crawl_comment_pages(
            CorpusStore(), state, FetchPool(VirtualClock())
        )
        assert state.stage == "metadata"
        return client, crawler

    def test_429_budget_exhaustion_is_recorded(self):
        frontier: CrawlFrontier[str] = CrawlFrontier(["url-1"], max_retries=2)
        client, crawler = self._crawl_comment_pages(429, frontier)
        # 1 initial attempt + 2 retries, then the budget is spent.
        assert client.calls == 3
        assert frontier.permanently_failed() == ["url-1"]
        assert crawler.stats.comment_pages_failed == ["url-1"]

    def test_non_retryable_failure_is_recorded(self):
        client, crawler = self._crawl_comment_pages(
            404, CrawlFrontier(["url-2"])
        )
        assert client.calls == 1
        assert crawler.stats.comment_pages_failed == ["url-2"]

    def test_recrawl_failures_recovers_recorded_pages(self, shared_world):
        """End-to-end: with the failure recorded, the §3.2 loop can fix it."""
        config, world = shared_world
        pipeline = ReproductionPipeline(config, world=world)
        enum = pipeline.enumerate_gab()
        crawler = DissenterCrawler(pipeline.client)
        detected = crawler.detect_accounts(enum.usernames())
        corpus = crawler.crawl(detected)
        # Simulate a page that failed out of its budget during the crawl.
        victim = next(iter(corpus.urls))
        del corpus.urls[victim]
        crawler.stats.comment_pages_failed.append(victim)
        recovered = crawler.recrawl_failures(corpus)
        assert recovered == 1
        assert victim in corpus.urls
        assert crawler.stats.comment_pages_failed == []


#: A pipeline state file as the pre-store (v2) format wrote it: the
#: corpus artifact and the active crawler's partial corpus are both bare
#: ``result_to_payload`` documents.
_V2_STATE = {
    "version": 2,
    "kind": "pipeline",
    "stage": "shadow",
    "artifacts": {
        "gab_enum": {},
        "detected": [],
        "corpus": {"users": [], "urls": [], "comments": []},
    },
    "active": {
        "version": 2,
        "crawler": "shadow",
        "stage": "uncover",
        "cursor": {},
        "result": {"users": [], "urls": [], "comments": []},
        "frontier": None,
        "stats": None,
        "cookies": None,
    },
}


class TestV2StateIsRejected:
    def test_v2_pipeline_envelope_raises_value_error(self, shared_world):
        config, world = shared_world
        pipeline = ReproductionPipeline(config, world=world)
        with pytest.raises(ValueError, match="pipeline checkpoint version 2"):
            pipeline.stage_crawl(resume=_V2_STATE)
        assert pipeline.origins.transport.requests_attempted == 0

    def test_crawl_resume_over_v2_state_exits_with_message(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "corpus.json"
        state = tmp_path / "corpus.json.state.json"
        state.write_text(json.dumps(_V2_STATE), encoding="utf-8")
        with pytest.raises(SystemExit) as exited:
            main(["crawl", "--scale", "0.001", "--seed", "3",
                  "--out", str(out), "--resume"])
        assert "--resume: unsupported pipeline checkpoint version 2" in str(
            exited.value.code
        )
        assert not out.exists()
        assert state.exists()


@pytest.mark.parametrize("index", [None, -2, 1.9, True, "3"])
@pytest.mark.parametrize(
    "crawler, crawler_cls",
    [("youtube", YouTubeCrawler), ("social", SocialGraphCrawler)],
)
def test_malformed_index_cursor_raises_value_error(crawler, crawler_cls, index):
    client = HttpClient(LoopbackTransport())
    resume = {"stage": "done", "cursor": {"index": index}}
    with pytest.raises(ValueError, match="'index'"):
        crawler_cls(client).crawl([], resume=resume)
    assert client.stats.requests == 0
