"""Hostile inputs for a checkpoint's state set: sidecars, journals, envelopes.

A pipeline state file references write-once sidecars (completed-stage
artifacts, the shadow crawler's id lists, inline store segments) and
append-only journals (gab_enum's accounts, store tails).  Every damaged
file must end in a ``ValueError`` naming it — or, for a journal that
runs past its recorded prefix, in a truncation and a byte-identical
resume — never in a traceback or a silently different corpus.  The CLI
turns each error into a ``--resume:`` exit message.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import dumps_result
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.errors import CrawlKilled
from repro.platform.config import WorldConfig
from repro.platform.world import build_world

SCALE, SEED = 0.001, 3
#: Kill points (requests) of this world's crawl: inside the gab_enum
#: stage (an accounts journal is live) and inside the shadow stage
#: (artifact and id-list sidecars plus a store-tail journal are live).
GAB_ENUM_KILL = 600
SHADOW_KILL = 3000


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(scale=SCALE, seed=SEED))


@pytest.fixture(scope="module")
def reference(world):
    """The uninterrupted crawl's corpus document."""
    return dumps_result(ReproductionPipeline(world=world).stage_crawl().corpus)


@pytest.fixture(scope="module")
def killed_states(world, tmp_path_factory):
    """State sets left by one kill in each stage, to copy per test."""
    states = {}
    for kill_at in (GAB_ENUM_KILL, SHADOW_KILL):
        run_dir = tmp_path_factory.mktemp(f"killed-{kill_at}")
        pipeline = ReproductionPipeline(world=world)
        pipeline.origins.transport.kill_after(kill_at)
        with pytest.raises(CrawlKilled):
            pipeline.stage_crawl(
                checkpointer=Checkpointer(run_dir / "c.state.json", 5)
            )
        states[kill_at] = run_dir
    return states


def _copy_state(killed_states, kill_at, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(killed_states[kill_at], run_dir)
    return run_dir / "c.state.json"


def _one(state, pattern):
    (path,) = state.parent.glob(f"{state.name}.{pattern}")
    return path


def _resume(world, state):
    pipeline = ReproductionPipeline(world=world)
    artifacts = pipeline.stage_crawl(
        checkpointer=Checkpointer(state, 5), resume=load_state(state)
    )
    return artifacts, pipeline


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


def _bit_flip(path, at=None):
    data = bytearray(path.read_bytes())
    data[len(data) // 2 if at is None else at] ^= 0x01
    path.write_bytes(bytes(data))


_SIDECAR_DAMAGE = {
    "missing": (lambda path: path.unlink(), "is missing"),
    "truncated": (_truncate, "bytes, its state file recorded"),
    "bit-flipped": (_bit_flip, "fails its sha256 check"),
}


class TestStateSetNames:
    def test_every_file_ends_in_state_json(self, killed_states):
        for run_dir in killed_states.values():
            names = [path.name for path in run_dir.iterdir()]
            assert len(names) > 1
            assert all(name.endswith(".state.json") for name in names)

    def test_shadow_state_references_sidecars_and_a_tail_journal(
        self, killed_states
    ):
        state = killed_states[SHADOW_KILL] / "c.state.json"
        envelope = load_state(state)
        assert envelope["version"] == 5 and envelope["stage"] == "shadow"
        assert list(envelope) == [
            "version", "stage", "artifacts", "cookies", "active"
        ]
        # The active crawler's own fields carry no version of their own.
        assert list(envelope["active"]) == ["stage", "cursor", "store"]
        assert set(envelope["artifacts"]) == {"gab_enum", "detected", "corpus"}
        for ref in envelope["artifacts"].values():
            assert set(ref) == {"sha256", "bytes"}
        cursor = envelope["active"]["cursor"]
        assert set(cursor["baseline_ids"]) == {"sha256", "bytes"}
        tail = envelope["active"]["store"]["tail"]
        assert set(tail) == {"sha256", "bytes", "records", "generation"}


class TestSidecars:
    @pytest.mark.parametrize("damage", sorted(_SIDECAR_DAMAGE))
    @pytest.mark.parametrize("pattern", ["corpus-*", "shadow.url_ids-*"])
    def test_damaged_sidecar_raises_value_error_naming_it(
        self, world, killed_states, tmp_path, damage, pattern
    ):
        state = _copy_state(killed_states, SHADOW_KILL, tmp_path)
        target = _one(state, pattern)
        mutate, message = _SIDECAR_DAMAGE[damage]
        mutate(target)
        pipeline = ReproductionPipeline(world=world)
        with pytest.raises(ValueError, match=message) as info:
            pipeline.stage_crawl(
                checkpointer=Checkpointer(state, 5), resume=load_state(state)
            )
        assert target.name in str(info.value)
        assert pipeline.origins.transport.requests_attempted == 0

    @pytest.mark.parametrize("ref", [
        None, [], {"sha256": "0" * 64}, {"sha256": "../../x", "bytes": 1},
        {"sha256": "0" * 64, "bytes": -1}, {"sha256": "0" * 64, "bytes": True},
    ], ids=repr)
    def test_malformed_reference_raises_value_error(
        self, world, killed_states, tmp_path, ref
    ):
        state = _copy_state(killed_states, SHADOW_KILL, tmp_path)
        envelope = load_state(state)
        envelope["artifacts"]["corpus"] = ref
        state.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.raises(ValueError, match="malformed sidecar 'corpus'"):
            ReproductionPipeline(world=world).stage_crawl(
                checkpointer=Checkpointer(state, 5), resume=envelope
            )

    def test_missing_artifact_raises_value_error(
        self, world, killed_states, tmp_path
    ):
        state = _copy_state(killed_states, SHADOW_KILL, tmp_path)
        envelope = load_state(state)
        del envelope["artifacts"]["detected"]
        with pytest.raises(ValueError, match=r"lacks the artifacts \['detected'\]"):
            ReproductionPipeline(world=world).stage_crawl(
                checkpointer=Checkpointer(state, 5), resume=envelope
            )

    def test_resume_needs_the_checkpointer(self, world, killed_states):
        envelope = load_state(killed_states[SHADOW_KILL] / "c.state.json")
        with pytest.raises(ValueError, match="needs the Checkpointer"):
            ReproductionPipeline(world=world).stage_crawl(resume=envelope)


class TestJournals:
    def test_short_journal_raises_value_error(
        self, world, killed_states, tmp_path
    ):
        state = _copy_state(killed_states, GAB_ENUM_KILL, tmp_path)
        journal = _one(state, "gab_enum.accounts.journal.state.json")
        _truncate(journal)
        with pytest.raises(ValueError, match="shorter than the") as info:
            _resume(world, state)
        assert journal.name in str(info.value)

    def test_wrong_prefix_hash_raises_value_error(
        self, world, killed_states, tmp_path
    ):
        state = _copy_state(killed_states, GAB_ENUM_KILL, tmp_path)
        journal = _one(state, "gab_enum.accounts.journal.state.json")
        _bit_flip(journal, at=3)
        with pytest.raises(ValueError, match="fails the sha256 check") as info:
            _resume(world, state)
        assert journal.name in str(info.value)

    @pytest.mark.parametrize("pattern", [
        "gab_enum.accounts.journal.state.json",
        "shadow.store.tail.journal.state.json",
    ])
    def test_long_journal_is_truncated_and_resume_is_byte_identical(
        self, world, killed_states, reference, tmp_path, pattern
    ):
        kill_at = GAB_ENUM_KILL if pattern.startswith("gab") else SHADOW_KILL
        state = _copy_state(killed_states, kill_at, tmp_path)
        journal = _one(state, pattern)
        # An append whose state file never landed: a whole record and a
        # torn one.
        with open(journal, "ab") as handle:
            handle.write(b'7 "extra"\n40 {"torn":')
        artifacts, pipeline = _resume(world, state)
        assert dumps_result(artifacts.corpus) == reference
        assert pipeline.origins.transport.requests_attempted > 0

    def test_open_journal_truncates_past_the_prefix(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "j.state.json")
        records = [{"a": 1}, "b"]
        ref = checkpointer.journal("k", records, lambda record: record)
        path = _one(tmp_path / "j.state.json", "k.journal.state.json")
        size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"3 [1]\n")
        reopened = Checkpointer(tmp_path / "j.state.json")
        assert reopened.open_journal("k", ref) == records
        assert path.stat().st_size == size

    def test_generation_change_appends_the_whole_new_list(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "j.state.json")
        first = checkpointer.journal("k", ["a", "b"], str, generation=0)
        assert first["records"] == 2
        again = checkpointer.journal("k", ["a", "b"], str, generation=0)
        assert again == first
        ref = checkpointer.journal("k", ["c"], str, generation=1)
        assert ref["bytes"] > first["bytes"]
        assert (ref["records"], ref["generation"]) == (1, 1)
        reopened = Checkpointer(tmp_path / "j.state.json")
        assert reopened.open_journal("k", ref) == ["c"]
        assert reopened.journal("k", ["c", "d"], str, generation=1) == (
            checkpointer.journal("k", ["c", "d"], str, generation=1)
        )


class TestEnvelopeVersion:
    def _resume_as(self, world, killed_states, tmp_path, version):
        state = _copy_state(killed_states, SHADOW_KILL, tmp_path)
        envelope = load_state(state)
        envelope["version"] = version
        pipeline = ReproductionPipeline(world=world)
        with pytest.raises(
            ValueError, match=f"pipeline checkpoint version {version} "
        ):
            pipeline.stage_crawl(
                checkpointer=Checkpointer(state, 5), resume=envelope
            )
        assert pipeline.origins.transport.requests_attempted == 0

    def test_v3_pipeline_envelope_raises_value_error(
        self, world, killed_states, tmp_path
    ):
        self._resume_as(world, killed_states, tmp_path, 3)

    def test_v4_pipeline_envelope_raises_value_error(
        self, world, killed_states, tmp_path
    ):
        self._resume_as(world, killed_states, tmp_path, 4)


class TestCookies:
    def test_a_boundary_resume_gets_the_jar_back(
        self, world, killed_states, reference, tmp_path
    ):
        """The envelope carries the shared client's jar, so a resume with
        no active crawler (a stage boundary) restores it too."""
        state = _copy_state(killed_states, SHADOW_KILL, tmp_path)
        envelope = load_state(state)
        cookie = {"name": "pref", "value": "1", "domain": "gab.com", "path": "/"}
        envelope["active"] = None          # the dissenter_crawl -> shadow boundary
        envelope["cookies"] = [cookie]
        pipeline = ReproductionPipeline(world=world)
        artifacts = pipeline.stage_crawl(
            checkpointer=Checkpointer(state, 5), resume=envelope
        )
        assert cookie in pipeline.client.cookies.to_state()
        assert dumps_result(artifacts.corpus) == reference

    @pytest.mark.parametrize("cookies", [None, "jar", [{"name": "x"}]], ids=repr)
    def test_malformed_cookies_raise_value_error(
        self, world, killed_states, cookies
    ):
        envelope = load_state(killed_states[SHADOW_KILL] / "c.state.json")
        envelope["cookies"] = cookies
        pipeline = ReproductionPipeline(world=world)
        with pytest.raises(ValueError, match="cookie-jar state"):
            pipeline.stage_crawl(
                checkpointer=Checkpointer(
                    killed_states[SHADOW_KILL] / "c.state.json", 5
                ),
                resume=envelope,
            )
        assert pipeline.origins.transport.requests_attempted == 0


class TestCleanup:
    def test_unreferenced_files_go_once_the_state_file_is_durable(
        self, tmp_path
    ):
        path = tmp_path / "s.state.json"
        orphan = tmp_path / ("s.state.json.old-" + "0" * 64 + ".state.json")
        orphan.write_text("[]", encoding="utf-8")
        unrelated = tmp_path / "s.state.json.keep.txt"
        unrelated.write_text("x", encoding="utf-8")
        checkpointer = Checkpointer(path)
        checkpointer.sidecar("v", 1)
        checkpointer.set_wrapper(lambda inner: {"v": checkpointer.ref("v")})
        checkpointer.flush()
        assert not orphan.exists()       # swept at the first flush
        (first,) = tmp_path.glob("s.state.json.v-*")
        checkpointer.sidecar("v", 2)
        assert first.exists()            # still referenced on disk
        checkpointer.flush()
        assert not first.exists()
        assert {p.name for p in tmp_path.iterdir()} == {
            "s.state.json", unrelated.name,
            f"s.state.json.v-{load_state(path)['v']['sha256']}.state.json",
        }
        checkpointer.discard()
        assert [p.name for p in tmp_path.iterdir()] == [unrelated.name]


# ----------------------------------------------------------------------
# The CLI turns every one of these into an exit message.
# ----------------------------------------------------------------------


def _set_version(version):
    def damage(state):
        envelope = load_state(state)
        envelope["version"] = version
        state.write_text(json.dumps(envelope), encoding="utf-8")

    return damage


_CLI_CASES = {
    "missing-sidecar": (
        SHADOW_KILL, lambda s: _one(s, "corpus-*").unlink(), "is missing",
    ),
    "truncated-sidecar": (
        SHADOW_KILL, lambda s: _truncate(_one(s, "detected-*")),
        "its state file recorded",
    ),
    "bit-flipped-sidecar": (
        SHADOW_KILL, lambda s: _bit_flip(_one(s, "shadow.baseline_ids-*")),
        "fails its sha256 check",
    ),
    "short-journal": (
        GAB_ENUM_KILL,
        lambda s: _truncate(_one(s, "gab_enum.accounts.journal.state.json")),
        "shorter than the",
    ),
    "bad-journal-prefix": (
        GAB_ENUM_KILL,
        lambda s: _bit_flip(
            _one(s, "gab_enum.accounts.journal.state.json"), at=3
        ),
        "fails the sha256 check",
    ),
    "v3-envelope": (
        SHADOW_KILL, _set_version(3), "pipeline checkpoint version 3",
    ),
    "v4-envelope": (
        SHADOW_KILL, _set_version(4), "pipeline checkpoint version 4",
    ),
}


@pytest.mark.parametrize("case", sorted(_CLI_CASES))
def test_crawl_resume_over_damaged_state_exits_with_message(tmp_path, case):
    kill_at, damage, message = _CLI_CASES[case]
    out = tmp_path / "corpus.json"
    state = tmp_path / "corpus.json.state.json"
    flags = ["crawl", "--scale", str(SCALE), "--seed", str(SEED),
             "--out", str(out)]
    assert main([*flags, "--checkpoint-every", "5",
                 "--die-after", str(kill_at)]) == 3
    damage(state)
    with pytest.raises(SystemExit) as exited:
        main([*flags, "--resume"])
    assert str(exited.value.code).startswith("--resume: ")
    assert message in str(exited.value.code)
    assert not out.exists()
