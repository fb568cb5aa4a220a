"""Store determinism: bytes on disk never depend on process state.

Segment lines, manifest bytes and snapshot payloads must be identical
across PYTHONHASHSEED values (no hash-ordered structure reaches the
log), and a crawl killed mid-flight and resumed *through sealed segment
references* must end on the same corpus, segments and manifest as an
uninterrupted run.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import result_to_payload
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.errors import CrawlKilled
from repro.platform.config import WorldConfig
from repro.platform.world import build_world

REPO_ROOT = Path(__file__).parents[2]

_STORE_DUMP = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
    from repro.store import CorpusStore

    store_dir = Path(sys.argv[1])
    store = CorpusStore(store_dir=store_dir, segment_records=7)
    for n in range(30):
        store.add_user(CrawledUser(
            username="user-%03d" % n, author_id="%08x" % n,
            permissions={"comment": n % 2 == 0, "vote": True},
            view_filters={"nsfw": False},
        ))
        store.add_comment(CrawledComment(
            comment_id="%08xc" % n, author_id="%08x" % (n % 5),
            commenturl_id="%08xu" % (n % 3), text="text %d" % n,
        ))
    print(json.dumps(store.snapshot(), sort_keys=True))
    """
)


def _dump_store(tmp_path: Path, hash_seed: str) -> tuple[str, dict[str, str]]:
    """Run the dump script under one PYTHONHASHSEED; return
    (snapshot_json, {filename: file_bytes}) for the spill directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    store_dir = tmp_path / f"store-seed{hash_seed}"
    proc = subprocess.run(
        [sys.executable, "-c", _STORE_DUMP, str(store_dir)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    # Bytes, not text: the spill directory also holds binary .npz
    # column files, which must be byte-identical across hash seeds.
    files = {
        path.name: path.read_bytes()
        for path in sorted(store_dir.iterdir())
    }
    return proc.stdout, files


def test_segments_and_manifest_identical_across_hash_seeds(tmp_path):
    snap1, files1 = _dump_store(tmp_path, "1")
    snap2, files2 = _dump_store(tmp_path, "2")
    # The spill directories differ; the snapshot names neither.
    assert snap1 == snap2
    parsed1 = json.loads(snap1)
    assert "dir" not in parsed1
    assert files1 == files2
    assert "manifest.json" in files1
    # Columnar projection rides along: every sealed segment has a .npz
    # whose sha256 is manifested next to the segment's own hash.
    assert any(name.endswith(".columns.npz") for name in files1)
    # The snapshot's tail plus on-disk segment counts cover every record.
    manifest = json.loads(files1["manifest.json"])
    assert manifest["total_records"] + len(parsed1["tail"]) == 60
    assert all(
        segment.get("columns_sha256") for segment in manifest["segments"]
    )


class TestKillResumeThroughSegmentRefs:
    """A kill→resume chain whose checkpoints reference sealed segments
    by (name, count, sha256) must land on the uninterrupted bytes."""

    CONFIG = dict(scale=0.0015, seed=31)
    SEGMENT_RECORDS = 64

    def _pipeline(self, world, store_dir):
        return ReproductionPipeline(
            WorldConfig(**self.CONFIG), world=world,
            store_dir=str(store_dir), segment_records=self.SEGMENT_RECORDS,
        )

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig(**self.CONFIG))

    def test_chain_matches_uninterrupted(self, world, tmp_path_factory):
        base = tmp_path_factory.mktemp("segrefs")
        reference = self._pipeline(world, base / "ref").stage_crawl()
        ref_corpus = result_to_payload(reference.corpus)
        assert reference.corpus.segment_refs, "world too small to seal"

        state = base / "state.json"
        store_dir = base / "chain"
        legs = 0
        while True:
            legs += 1
            pipeline = self._pipeline(world, store_dir)
            checkpointer = Checkpointer(state, every_pages=5)
            resume = load_state(state) if state.exists() else None
            if legs <= 2:
                pipeline.origins.transport.kill_after(220 * legs)
            try:
                artifacts = pipeline.stage_crawl(
                    checkpointer=checkpointer, resume=resume
                )
                break
            except CrawlKilled:
                # The surviving checkpoint must reference segments by
                # hash, not embed them, once any segment has sealed.
                payload = json.loads(state.read_text(encoding="utf-8"))
                active = payload.get("active") or {}
                sealed = (active.get("store") or {}).get("sealed")
                if sealed:
                    assert all("lines" not in entry for entry in sealed)
        assert legs == 3
        assert result_to_payload(artifacts.corpus) == ref_corpus
        # Same segments, same bytes, same manifest as the reference run.
        ref_files = {
            p.name: p.read_bytes() for p in sorted((base / "ref").iterdir())
        }
        chain_files = {
            p.name: p.read_bytes() for p in sorted(store_dir.iterdir())
        }
        assert chain_files == ref_files
