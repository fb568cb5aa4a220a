"""Determinism contract of the concurrent fetch engine (§3 crawl stages).

The acceptance bar for ``--connections``: the corpus, the client stats,
the canonical request sequence and every checkpoint must be bit-identical
across connection counts — including kill→resume chains under a nonzero
fault plan — while the simulated crawl duration drops roughly K-fold.
"""

import random

import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import result_to_payload
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.errors import CrawlKilled
from repro.platform.config import WorldConfig
from repro.platform.world import build_world


def _config() -> WorldConfig:
    # Nonzero fault plan: retries, timeouts and backoff sleeps must all
    # land identically whatever the connection count.
    return WorldConfig(
        scale=0.0012, seed=11,
        fault_timeout_rate=0.05, fault_error_rate=0.05,
    )


@pytest.fixture(scope="module")
def shared_world():
    config = _config()
    return config, build_world(config)


def _crawl(shared_world, connections):
    """One full §3 crawl; returns comparable observables."""
    config, world = shared_world
    pipeline = ReproductionPipeline(
        config, world=world, with_faults=True,
        connections=connections,
    )
    artifacts = pipeline.stage_crawl()
    snapshot = {
        "corpus": result_to_payload(artifacts.corpus),
        "gab_enum": artifacts.gab_enumeration.to_dict(),
        "youtube": sorted(artifacts.youtube_crawl.items.items()),
        "requests": pipeline.origins.transport.requests_attempted,
        "client_stats": (
            pipeline.client.stats.requests,
            pipeline.client.stats.retries,
            pipeline.client.stats.timeouts,
            dict(pipeline.client.stats.status_counts),
        ),
        "clock_now": pipeline.client.clock.now(),
    }
    simulated = pipeline.client.clock.total_slept
    extras = pipeline.fetch_extras()
    return snapshot, simulated, extras


@pytest.fixture(scope="module")
def sequential(shared_world):
    return _crawl(shared_world, connections=1)


class TestBitIdenticalAcrossConnections:
    @pytest.mark.parametrize("connections", [4, 8])
    def test_corpus_stats_and_timeline_identical(
        self, shared_world, sequential, connections
    ):
        reference, reference_simulated, _ = sequential
        snapshot, simulated, extras = _crawl(shared_world, connections)
        assert snapshot == reference
        # The duration metric is the one thing that must NOT match: K
        # lanes overlap the waits.  (The ≥3× bar at K=4 is asserted by
        # the throughput benchmark at its calibrated scale; here we just
        # require a strict, substantial win.)
        assert simulated < 0.6 * reference_simulated
        # The lanes genuinely filled at some point in some stage.
        assert max(s["high_watermark"] for s in extras.values()) == connections

    def test_sequential_pool_is_pure_overhead_free(self, sequential):
        _, simulated, extras = sequential
        for stage, stats in extras.items():
            assert stats["connections"] == 1
            # One lane: makespan degenerates to the serial sum.
            assert stats["makespan_seconds"] == pytest.approx(
                stats["busy_seconds"]
            ), stage


# ----------------------------------------------------------------------
# Kill → resume chains.
# ----------------------------------------------------------------------


def _run_leg(shared_world, state_path, kill_after, connections):
    config, world = shared_world
    pipeline = ReproductionPipeline(
        config, world=world, with_faults=True, connections=connections,
    )
    checkpointer = Checkpointer(state_path, every_pages=5)
    resume = load_state(state_path) if state_path.exists() else None
    pipeline.origins.transport.kill_after(kill_after)
    try:
        artifacts = pipeline.stage_crawl(checkpointer=checkpointer, resume=resume)
    except CrawlKilled:
        return None, checkpointer.saves
    return artifacts, checkpointer.saves


class TestKillResumeUnderConcurrency:
    def test_checkpoint_identical_across_connections_at_kill(
        self, shared_world, sequential, tmp_path
    ):
        # Kill a sequential and a 4-connection crawl at the same request
        # boundary: the checkpoint files must carry identical payloads.
        _, _, _ = sequential
        kill_at = 400
        states = {}
        for connections in (1, 4):
            path = tmp_path / f"kill-{connections}.state.json"
            artifacts, saves = _run_leg(shared_world, path, kill_at, connections)
            assert artifacts is None, "kill did not fire"
            assert saves > 0, "died before the first checkpoint"
            states[connections] = load_state(path)
        assert states[1] == states[4]

    def test_killed_concurrent_crawl_resumes_bit_identically(
        self, shared_world, sequential, tmp_path
    ):
        reference, _, _ = sequential
        full_requests = reference["requests"]
        state_path = tmp_path / "chain.state.json"

        rng = random.Random(0xC0FFEE)
        kills = [
            rng.randrange(full_requests // 8, full_requests // 3)
            for _ in range(2)
        ]
        for kill_at in kills:
            artifacts, saves = _run_leg(shared_world, state_path, kill_at, 4)
            assert artifacts is None, f"kill at {kill_at} did not fire"
            assert saves > 0
        artifacts, _ = _run_leg(shared_world, state_path, None, 4)
        assert artifacts is not None, "final leg unexpectedly killed"
        assert result_to_payload(artifacts.corpus) == reference["corpus"]
        assert artifacts.gab_enumeration.to_dict() == reference["gab_enum"]

    def test_resume_across_different_connection_counts(
        self, shared_world, sequential, tmp_path
    ):
        # A checkpoint written by a sequential leg must be consumable by
        # a concurrent leg (and vice versa): the on-disk format carries
        # no engine state.
        reference, _, _ = sequential
        state_path = tmp_path / "mixed.state.json"
        artifacts, _ = _run_leg(
            shared_world, state_path, reference["requests"] // 4, 1
        )
        assert artifacts is None
        artifacts, _ = _run_leg(shared_world, state_path, None, 8)
        assert artifacts is not None
        assert result_to_payload(artifacts.corpus) == reference["corpus"]
