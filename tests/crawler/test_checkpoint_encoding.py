"""Checkpoint bytes.

A checkpointed pipeline crawl must write plain ``json.dumps`` text and
state sets (state file, sidecars, journals) that are a pure function of
the crawl's seed — also across a kill→resume chain — and the
providers' hand-built ``to_dict`` forms must equal their
``dataclasses.asdict`` forms.
"""

import json
import shutil
from dataclasses import asdict

import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.crawler.gab_enum import GabEnumerationResult
from repro.crawler.records import CrawledGabAccount, CrawledYouTubeItem
from repro.crawler.runtime import Checkpointer, load_state
from repro.crawler.youtube_crawl import YouTubeCrawlResult
from repro.net.errors import CrawlKilled
from repro.platform import WorldConfig, build_world


class _RecordingCheckpointer(Checkpointer):
    """Keeps the bytes of every state file it writes, and of its state set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.written: list[bytes] = []
        self.state_sets: list[dict[str, bytes]] = []

    def flush(self) -> bool:
        wrote = super().flush()
        if wrote:
            self.written.append(self.path.read_bytes())
            self.state_sets.append(_state_set(self.path))
        return wrote


def _state_set(state_path) -> dict[str, bytes]:
    """Every ``*.state.json*`` file beside ``state_path``, by name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(state_path.parent.glob("*.state.json*"))
    }


class TestCheckpointedCrawlBytes:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig(scale=0.001, seed=5))

    def _pipeline(self, world, run_dir) -> ReproductionPipeline:
        return ReproductionPipeline(
            world=world, connections=2,
            store_dir=str(run_dir / "store"), segment_records=256,
        )

    def _crawl(self, world, run_dir) -> _RecordingCheckpointer:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        checkpointer = _RecordingCheckpointer(
            run_dir / "crawl.state.json", every_pages=25
        )
        self._pipeline(world, run_dir).stage_crawl(checkpointer=checkpointer)
        return checkpointer

    def test_state_files_are_plain_json_and_seed_determined(
        self, world, tmp_path
    ):
        first = self._crawl(world, tmp_path / "run")
        texts = [raw.decode("utf-8") for raw in first.written]
        assert len(texts) > 10
        for text in texts:
            assert text == json.dumps(json.loads(text))
        stages = {json.loads(text)["stage"] for text in texts}
        assert {"gab_enum", "shadow", "tail"} <= stages
        # The shadow stage's authenticated session rides in the cookies.
        assert any('"name": "session"' in text for text in texts)
        # Sidecars and journals join the state set, and every file of
        # the set is checkpoint state by its name.
        names = {name for state in first.state_sets for name in state}
        assert any(".journal.state.json" in name for name in names)
        assert any("crawl.state.json.corpus-" in name for name in names)
        assert all(name.endswith(".state.json") for name in names)
        # Each tick's set is its state file plus exactly what it references.
        for state in first.state_sets:
            envelope = json.loads(state["crawl.state.json"])
            for key, ref in envelope["artifacts"].items():
                name = f"crawl.state.json.{key}-{ref['sha256']}.state.json"
                assert len(state[name]) == ref["bytes"]

        # Same seed, same directory: byte-identical state sets at every tick.
        second = self._crawl(world, tmp_path / "run")
        assert second.written == first.written
        assert second.state_sets == first.state_sets

    def test_state_sets_do_not_depend_on_the_checkout_path(
        self, world, tmp_path
    ):
        """The store payload names no directory, so the same crawl run
        from directories whose paths differ in length writes the same
        bytes."""
        short = self._crawl(world, tmp_path / "a")
        longer = self._crawl(world, tmp_path / "a-checkout-with-a-longer-path")
        assert longer.written == short.written
        assert longer.state_sets == short.state_sets

    def test_killed_and_resumed_chain_reaches_the_same_final_state_set(
        self, world, tmp_path
    ):
        run_dir = tmp_path / "run"
        uninterrupted = self._crawl(world, run_dir)
        requests = 0
        shutil.rmtree(run_dir)
        run_dir.mkdir()
        state = run_dir / "crawl.state.json"
        for kill_at in (150, 450, None):
            pipeline = self._pipeline(world, run_dir)
            pipeline.origins.transport.kill_after(kill_at)
            checkpointer = _RecordingCheckpointer(state, every_pages=25)
            try:
                pipeline.stage_crawl(
                    checkpointer=checkpointer,
                    resume=load_state(state) if state.exists() else None,
                )
            except CrawlKilled:
                assert kill_at is not None
                requests += pipeline.origins.transport.requests_attempted
                continue
            assert kill_at is None
        assert requests > 0
        assert checkpointer.state_sets[-1] == uninterrupted.state_sets[-1]
        assert _state_set(state) == uninterrupted.state_sets[-1]


class TestProviderDicts:
    def test_gab_enumeration_to_dict_matches_asdict(self):
        accounts = [
            CrawledGabAccount(1, "alice", "Alice ✓", "2016-08-10T00:00:00Z"),
            CrawledGabAccount(
                9, "bob", "", "", followers_count=12, following_count=3
            ),
        ]
        result = GabEnumerationResult(accounts=accounts, ids_probed=40, misses=31)
        payload = result.to_dict()
        assert payload == {
            "accounts": [asdict(a) for a in accounts],
            "ids_probed": 40,
            "misses": 31,
        }
        assert GabEnumerationResult.from_dict(payload) == result

    def test_youtube_to_dict_matches_asdict(self):
        items = {
            "https://youtu.be/a": CrawledYouTubeItem(
                "https://youtu.be/a", "video", "OK", "t", "o", True
            ),
            "https://youtube.com/user/b": CrawledYouTubeItem(
                "https://youtube.com/user/b", "user", "unavailable"
            ),
        }
        result = YouTubeCrawlResult(items=items, fetch_failures=["x", "y"])
        payload = result.to_dict()
        assert payload == {
            "items": {url: asdict(item) for url, item in items.items()},
            "fetch_failures": ["x", "y"],
        }
        result.fetch_failures.append("z")
        assert payload["fetch_failures"] == ["x", "y"]
        assert YouTubeCrawlResult.from_dict(payload).to_dict() == payload
