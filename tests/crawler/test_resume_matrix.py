"""Kill→resume in every checkpointed stage and right after every stage boundary.

``stage_crawl`` checkpoints six §3 stages.  For each one this kills the
crawl once halfway through the stage (a checkpoint of the active crawler
is live) and once on the first request after the stage's closing flush
(the state file names the next stage and holds no active crawler yet),
then resumes it in a fresh pipeline.  Every resumed corpus dump and
gab/YouTube artifact and the follow graph the social stage induces
must equal the uninterrupted crawl's.
"""

import pytest

from repro.core.pipeline import PIPELINE_STAGES, ReproductionPipeline
from repro.crawler.checkpoint import dumps_result
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.errors import CrawlKilled
from repro.platform.config import WorldConfig
from repro.platform.world import build_world

SCALE, SEED = 0.001, 3
EVERY_PAGES = 5
#: The checkpointed stages; the artifact sidecar each one's closing
#: flush writes ("corpus" twice: the spider's, then the shadow overlay's).
STAGES = PIPELINE_STAGES[:-1]
_ARTIFACT_KEYS = {"gab_enum", "detected", "corpus", "youtube", "social"}


def _artifacts(artifacts) -> dict:
    return {
        "corpus": dumps_result(artifacts.corpus),
        "gab_enum": artifacts.gab_enumeration.to_dict(),
        "youtube": artifacts.youtube_crawl.to_dict(),
        "social": (list(artifacts.graph.nodes), list(artifacts.graph.edges)),
    }


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(scale=SCALE, seed=SEED))


@pytest.fixture(scope="module")
def reference(world, tmp_path_factory):
    """The uninterrupted checkpointed crawl: its artifacts, the request
    count at which each stage's closing flush landed, and its total."""
    pipeline = ReproductionPipeline(world=world)
    checkpointer = Checkpointer(
        tmp_path_factory.mktemp("reference") / "c.state.json", EVERY_PAGES
    )
    boundaries = []
    write_sidecar = checkpointer.sidecar

    def sidecar(key, value):
        if key in _ARTIFACT_KEYS:
            boundaries.append(pipeline.origins.transport.requests_attempted)
        write_sidecar(key, value)

    checkpointer.sidecar = sidecar
    artifacts = pipeline.stage_crawl(checkpointer=checkpointer)
    assert len(boundaries) == len(STAGES)
    total = pipeline.origins.transport.requests_attempted
    return _artifacts(artifacts), boundaries, total


def _kill_points():
    for stage in STAGES:
        yield pytest.param(stage, "inside", id=f"{stage}-inside")
        yield pytest.param(stage, "after", id=f"{stage}-after-boundary")


@pytest.mark.parametrize("stage, where", list(_kill_points()))
def test_kill_and_resume_matches_uninterrupted(
    world, reference, tmp_path, stage, where
):
    expected, boundaries, total = reference
    position = STAGES.index(stage)
    start = boundaries[position - 1] if position else 0
    end = boundaries[position]
    kill_at = start + (end - start) // 2 if where == "inside" else end
    state_path = tmp_path / "c.state.json"

    killed = ReproductionPipeline(world=world)
    killed.origins.transport.kill_after(kill_at)
    with pytest.raises(CrawlKilled):
        killed.stage_crawl(
            checkpointer=Checkpointer(state_path, EVERY_PAGES)
        )
    state = load_state(state_path)
    if where == "inside":
        assert state["stage"] == stage
        assert state["active"] is not None
    else:
        assert state["stage"] == PIPELINE_STAGES[position + 1]
        assert state["active"] is None

    resumed = ReproductionPipeline(world=world)
    artifacts = resumed.stage_crawl(
        checkpointer=Checkpointer(state_path, EVERY_PAGES), resume=state
    )
    assert _artifacts(artifacts) == expected
    assert resumed.origins.transport.requests_attempted < total
