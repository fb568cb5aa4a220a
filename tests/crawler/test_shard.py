"""The sharded crawl engine: byte-identity, kill→resume, envelope v4.

The contract under test: a sharded crawl's merged corpus — the dumped
JSON, the sealed store snapshot and, with a spill directory, every
segment, manifest and column file — is byte-identical to the unsharded
run's, across worker counts, connection counts, and kill→resume chains;
and a resume over a damaged envelope or worker state fails with a
``ValueError`` naming what is wrong.
"""

import json
import shutil
import zlib

import pytest

from repro.cli import main
from repro.crawler.checkpoint import dump_result
from repro.crawler.dissenter_crawl import DissenterCrawler
from repro.crawler.gab_enum import GabEnumerator
from repro.crawler.runtime import load_state
from repro.crawler.shadow import ShadowCrawler
from repro.crawler.shard import (
    SHARD_ENVELOPE_VERSION,
    SHARD_PHASES,
    ShardEngine,
    coerce_shard_envelope,
    shard_key,
)
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


def _unsharded(world, out, store):
    """The unsharded corpus-stage crawl into ``store``, dumped to ``out``."""
    clock = VirtualClock()
    origins = build_origins(world, clock=clock, seed=world.config.seed)
    client = HttpClient(origins.transport)
    enum = GabEnumerator(client).enumerate(max_id=world.gab.max_id)
    crawler = DissenterCrawler(client)
    detected = crawler.detect_accounts(enum.usernames())
    corpus = crawler.crawl(detected, store=store)
    while crawler.stats.comment_pages_failed:
        if crawler.recrawl_failures(corpus) == 0:
            break
    ShadowCrawler(client, origins.dissenter).uncover(corpus)
    corpus.seal()
    dump_result(corpus, out)
    return {"corpus": corpus, "bytes": out.read_bytes(), "stats": crawler.stats}


@pytest.fixture(scope="module")
def reference(shard_world, tmp_path_factory):
    """The unsharded crawl with inline segments: store snapshot + dumped bytes."""
    out = tmp_path_factory.mktemp("reference") / "corpus.json"
    return _unsharded(shard_world, out, CorpusStore())


@pytest.fixture(scope="module")
def spilled_reference(shard_world, tmp_path_factory):
    """The unsharded crawl spilled to a segment directory (256 records each)."""
    base = tmp_path_factory.mktemp("spilled")
    segments = base / "segments"
    _unsharded(
        shard_world, base / "corpus.json",
        CorpusStore(store_dir=segments, segment_records=256),
    )
    return _tree(segments)


def _tree(root):
    """Every file under ``root``, by relative path."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
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


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_multi_shard_byte_identical(shard_world, reference, tmp_path, shards):
    out = tmp_path / "corpus.json"
    engine = run_sharded(shard_world, shards, out, connections=4)
    assert out.read_bytes() == reference["bytes"]
    # Shard-local counters merge to exactly the sequential totals.
    ref = reference["stats"]
    assert engine.stats.comment_pages_parsed == ref.comment_pages_parsed
    assert engine.stats.home_pages_parsed == ref.home_pages_parsed
    assert engine.stats.accounts_detected == ref.accounts_detected
    assert engine.stats.usernames_probed == ref.usernames_probed
    assert engine.stats.author_pages_visited == ref.author_pages_visited


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
    files, other = _tree(dirs[1]), _tree(dirs[2])
    assert files.keys() == other.keys()
    assert files == other


# ----------------------------------------------------------------------
# Kill → resume.
# ----------------------------------------------------------------------

#: Kill→resume chains: (shards, engine options, spill the store, most
#: resume legs).  Worker checkpoints matter: without them a die budget
#: smaller than one shard's phase cost would never converge.
_KILL_CASES = {
    "two-shards": (2, {"die_after": 500, "checkpoint_every": 25}, False, 40),
    # Shard 0 dies in every phase that has workers at least once; the
    # chain takes 56 legs.
    "every-phase": (2, {"die_after": 30, "checkpoint_every": 4}, False, 60),
    "four-shards-spilled": (
        4,
        {"connections": 2, "segment_records": 256,
         "checkpoint_every": 5, "die_after": 200},
        True,
        40,
    ),
}


@pytest.mark.parametrize("case", list(_KILL_CASES))
def test_kill_writes_v4_envelope_and_resume_converges(
    shard_world, reference, spilled_reference, tmp_path, case
):
    shards, options, spilled, max_legs = _KILL_CASES[case]
    out = tmp_path / "corpus.json"
    if spilled:
        options = {**options, "store_dir": tmp_path / "segments"}
    engine = ShardEngine(shard_world, shards, out, **options)
    with pytest.raises(CrawlKilled):
        engine.run()
    assert engine.state_path.exists()
    envelope = load_state(engine.state_path)
    assert envelope["kind"] == "sharded"
    assert envelope["version"] == SHARD_ENVELOPE_VERSION
    assert envelope["shards"] == shards
    assert envelope["phase"] in SHARD_PHASES
    # Resume legs until the chain converges (budget is per-run).
    for _ in range(max_legs):
        engine = ShardEngine(shard_world, shards, out, **options)
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
    # No file of any state set (envelope, worker state, sidecars,
    # journals) and no worker scratch survives the finished chain.
    assert not list(tmp_path.rglob("*.state.json*"))
    assert not engine.shards_dir.exists()
    if spilled:
        # Every segment (JSONL, manifest, column files) matches too.
        assert _tree(tmp_path / "segments") == spilled_reference


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


# ----------------------------------------------------------------------
# Typed errors at the resume boundary.
# ----------------------------------------------------------------------

#: Shard 0 issues 650 gab_enum requests at this scale, so this budget
#: kills it in the detect phase, after a few worker checkpoints.
_DETECT_KILL = 700


@pytest.fixture(scope="module")
def killed_in_detect(shard_world, tmp_path_factory):
    """A 2-shard run killed in the detect phase: envelope + worker state."""
    base = tmp_path_factory.mktemp("killed")
    engine = ShardEngine(
        shard_world, 2, base / "corpus.json",
        die_after=_DETECT_KILL, checkpoint_every=5,
    )
    with pytest.raises(CrawlKilled):
        engine.run()
    envelope = load_state(engine.state_path)
    assert envelope["phase"] == "detect"
    assert envelope["completed_shards"] == [1]
    return base


def _damaged_copy(killed, tmp_path):
    """A copy of the killed run; returns (out path, envelope, worker state path)."""
    shutil.copytree(killed, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "corpus.json"
    worker_state = tmp_path / "corpus.json.shards" / "shard-00" / "state.json"
    return out, load_state(tmp_path / "corpus.json.state.json"), worker_state


def _bad_worker_cursor(worker_state):
    payload = load_state(worker_state)
    payload["active"]["cursor"]["index"] = "x"
    worker_state.write_text(json.dumps(payload), encoding="utf-8")


def _drop_output(tmp_path):
    (tmp_path / "corpus.json.shards" / "shard-01" / "detect.json").unlink()


_RESUME_CASES = {
    "no-store": (
        lambda envelope, tmp: envelope.pop("store"), "field 'store' is malformed",
    ),
    "completed-shard-out-of-range": (
        lambda envelope, tmp: envelope.update(completed_shards=[5]),
        "field 'completed_shards' is malformed",
    ),
    "artifacts-not-object": (
        lambda envelope, tmp: envelope.update(artifacts=[1]),
        "field 'artifacts' is malformed",
    ),
    "completed-shard-output-missing": (
        lambda envelope, tmp: _drop_output(tmp),
        "shard 1's detect output",
    ),
    "worker-cursor": (
        lambda envelope, tmp: _bad_worker_cursor(
            tmp / "corpus.json.shards" / "shard-00" / "state.json"
        ),
        "shard 0 cannot resume from",
    ),
}


@pytest.mark.parametrize("case", list(_RESUME_CASES))
def test_resume_over_damaged_state_raises_value_error(
    shard_world, killed_in_detect, tmp_path, case
):
    damage, message = _RESUME_CASES[case]
    out, envelope, worker_state = _damaged_copy(killed_in_detect, tmp_path)
    damage(envelope, tmp_path)
    engine = ShardEngine(shard_world, 2, out, checkpoint_every=5)
    with pytest.raises(ValueError) as raised:
        engine.run(resume=envelope)
    assert message in str(raised.value)
    if case == "worker-cursor":
        assert str(worker_state) in str(raised.value)
        assert "'index'" in str(raised.value)


def test_cli_resume_over_damaged_worker_state_exits_with_message(
    killed_in_detect, tmp_path
):
    out, _, worker_state = _damaged_copy(killed_in_detect, tmp_path)
    _bad_worker_cursor(worker_state)
    with pytest.raises(SystemExit) as exited:
        main([
            "crawl", "--scale", "0.001", "--seed", "3", "--shards", "2",
            "--checkpoint-every", "5", "--out", str(out), "--resume",
        ])
    assert str(exited.value.code).startswith("--shards: shard 0 cannot resume")
    assert str(worker_state) in str(exited.value.code)
    assert not out.exists()


def test_fault_after_a_resume_is_not_blamed_on_the_state(
    shard_world, killed_in_detect, tmp_path, monkeypatch
):
    """A ValueError a resumed worker raises while crawling is a worker
    fault: it is not reported as an invalid saved state."""
    out, envelope, _ = _damaged_copy(killed_in_detect, tmp_path)

    def broken(self, *args, **kwargs):
        raise ValueError("a parser fault")

    # Workers are forked, so they inherit the patched method.
    monkeypatch.setattr(DissenterCrawler, "detect_accounts", broken)
    engine = ShardEngine(shard_world, 2, out, checkpoint_every=5)
    with pytest.raises(RuntimeError, match="shard 0 worker exited with status 1"):
        engine.run(resume=envelope)
