"""The sharded crawl engine: byte-identity, kill→resume, envelope v4.

The contract under test is ISSUE 8's acceptance bar: a sharded crawl's
merged corpus — the dumped JSON *and* the sealed store snapshot — is
byte-identical to the unsharded run's, across worker counts, connection
counts, and kill→resume chains.
"""

import json
import zlib

import pytest

from repro.crawler.checkpoint import (
    SHARD_ENVELOPE_VERSION,
    coerce_shard_envelope,
    dump_result,
    is_shard_envelope,
)
from repro.crawler.dissenter_crawl import DissenterCrawler
from repro.crawler.gab_enum import GabEnumerator
from repro.crawler.runtime import load_state
from repro.crawler.shadow import ShadowCrawler
from repro.crawler.shard import SHARD_PHASES, ShardEngine, shard_key
from repro.net import HttpClient
from repro.net.clock import VirtualClock
from repro.net.errors import CrawlKilled
from repro.platform import WorldConfig, build_world
from repro.platform.apps import build_origins
from repro.store import CorpusStore


@pytest.fixture(scope="module")
def shard_world():
    """A small world with a non-trivial recrawl/shadow tail."""
    return build_world(WorldConfig(scale=0.001, seed=3))


@pytest.fixture(scope="module")
def reference(shard_world, tmp_path_factory):
    """The unsharded corpus-stage crawl: store snapshot + dumped bytes."""
    clock = VirtualClock()
    origins = build_origins(
        shard_world, clock=clock, seed=shard_world.config.seed
    )
    client = HttpClient(origins.transport)
    enum = GabEnumerator(client).enumerate(max_id=shard_world.gab.max_id)
    crawler = DissenterCrawler(client)
    detected = crawler.detect_accounts(enum.usernames())
    corpus = crawler.crawl(detected, store=CorpusStore())
    while crawler.stats.comment_pages_failed:
        if crawler.recrawl_failures(corpus) == 0:
            break
    ShadowCrawler(client, origins.dissenter).uncover(corpus)
    corpus.seal()
    out = tmp_path_factory.mktemp("reference") / "corpus.json"
    dump_result(corpus, out)
    return {
        "corpus": corpus,
        "bytes": out.read_bytes(),
        "stats": crawler.stats,
    }


def run_sharded(world, shards, out, **kwargs) -> ShardEngine:
    engine = ShardEngine(world, shards, out, **kwargs)
    engine.run()
    engine.store.seal()
    dump_result(engine.store, out)
    engine.cleanup()
    return engine


# ----------------------------------------------------------------------
# The partition key.
# ----------------------------------------------------------------------

def test_shard_key_is_crc32_not_hash():
    # Pinned values: stable across processes and PYTHONHASHSEED.
    assert shard_key("alice", 4) == zlib.crc32(b"alice") % 4
    assert shard_key("alice", 4) == shard_key("alice", 4)
    assert shard_key("", 3) == 0
    assert {shard_key(f"user-{i}", 8) for i in range(64)} == set(range(8))


def test_shard_key_respects_modulus():
    for shards in (1, 2, 3, 7):
        for value in ("a", "b", "commenturl-123"):
            assert 0 <= shard_key(value, shards) < shards


# ----------------------------------------------------------------------
# Byte identity across shard/connection counts.
# ----------------------------------------------------------------------

def test_single_shard_matches_unsharded(shard_world, reference, tmp_path):
    out = tmp_path / "corpus.json"
    engine = run_sharded(shard_world, 1, out)
    assert out.read_bytes() == reference["bytes"]
    assert engine.store.snapshot() == reference["corpus"].snapshot()
    assert not engine.shards_dir.exists()
    assert not engine.state_path.exists()


def test_multi_shard_byte_identical(shard_world, reference, tmp_path):
    out = tmp_path / "corpus.json"
    engine = run_sharded(shard_world, 3, out, connections=4, parse_workers=2)
    assert out.read_bytes() == reference["bytes"]
    # Shard-local counters merge to exactly the sequential totals.
    ref = reference["stats"]
    assert engine.stats.comment_pages_parsed == ref.comment_pages_parsed
    assert engine.stats.home_pages_parsed == ref.home_pages_parsed
    assert engine.stats.accounts_detected == ref.accounts_detected
    assert engine.stats.usernames_probed == ref.usernames_probed


def test_spilled_segments_byte_identical(shard_world, tmp_path):
    dirs = {}
    for shards in (1, 2):
        out = tmp_path / f"s{shards}" / "corpus.json"
        out.parent.mkdir()
        store_dir = tmp_path / f"s{shards}" / "segments"
        run_sharded(
            shard_world, shards, out,
            store_dir=store_dir, segment_records=64,
        )
        dirs[shards] = store_dir
    files = {
        path.relative_to(dirs[1]): path.read_bytes()
        for path in sorted(dirs[1].rglob("*"))
        if path.is_file()
    }
    other = {
        path.relative_to(dirs[2]): path.read_bytes()
        for path in sorted(dirs[2].rglob("*"))
        if path.is_file()
    }
    assert files.keys() == other.keys()
    assert files == other


# ----------------------------------------------------------------------
# Kill → resume.
# ----------------------------------------------------------------------

def test_kill_writes_v4_envelope_and_resume_converges(
    shard_world, reference, tmp_path
):
    out = tmp_path / "corpus.json"
    # checkpoint_every matters: without worker checkpoints a die budget
    # smaller than one shard's phase cost would never converge.
    engine = ShardEngine(
        shard_world, 2, out, die_after=500, checkpoint_every=25
    )
    with pytest.raises(CrawlKilled):
        engine.run()
    assert engine.state_path.exists()
    envelope = load_state(engine.state_path)
    assert is_shard_envelope(envelope)
    assert envelope["version"] == SHARD_ENVELOPE_VERSION
    assert envelope["shards"] == 2
    assert envelope["phase"] in SHARD_PHASES
    # Resume legs until the chain converges (budget is per-run).
    for _ in range(40):
        engine = ShardEngine(
            shard_world, 2, out, die_after=500, checkpoint_every=25
        )
        try:
            engine.run(resume=load_state(engine.state_path))
        except CrawlKilled:
            continue
        break
    else:
        pytest.fail("kill→resume chain did not converge")
    engine.store.seal()
    dump_result(engine.store, out)
    engine.cleanup()
    assert out.read_bytes() == reference["bytes"]


# ----------------------------------------------------------------------
# Envelope coercion and argument validation.
# ----------------------------------------------------------------------

def test_envelope_rejects_wrong_shard_count(shard_world, tmp_path):
    out = tmp_path / "corpus.json"
    engine = ShardEngine(shard_world, 2, out, die_after=400)
    with pytest.raises(CrawlKilled):
        engine.run()
    envelope = load_state(engine.state_path)
    with pytest.raises(ValueError, match="shard"):
        coerce_shard_envelope(envelope, 4)
    # But the matching count round-trips.
    assert coerce_shard_envelope(envelope, 2)["shards"] == 2
    restarted = ShardEngine(shard_world, 4, out)
    with pytest.raises(ValueError):
        restarted.run(resume=envelope)


def test_envelope_rejects_foreign_payloads():
    with pytest.raises(ValueError):
        coerce_shard_envelope({"kind": "pipeline", "version": 4}, 2)
    with pytest.raises(ValueError):
        coerce_shard_envelope({"kind": "sharded", "version": 3}, 2)
    assert not is_shard_envelope({"kind": "pipeline", "version": 4})
    assert not is_shard_envelope([])


def test_shards_must_be_positive(shard_world, tmp_path):
    with pytest.raises(ValueError):
        ShardEngine(shard_world, 0, tmp_path / "corpus.json")


def test_envelope_is_valid_json_with_partition_spec(shard_world, tmp_path):
    out = tmp_path / "corpus.json"
    engine = ShardEngine(shard_world, 2, out, die_after=400)
    with pytest.raises(CrawlKilled):
        engine.run()
    payload = json.loads(engine.state_path.read_text())
    assert set(payload["partition"]) == set(SHARD_PHASES)
    assert payload["completed_shards"] == sorted(payload["completed_shards"])
