"""Unit tests for the resumable-crawl runtime and checkpoint format v3.

Covers the :class:`Checkpointer` cadence (page and simulated-seconds
triggers), atomic-write behaviour, the v3 payload round trip, v2
rejection (documents written before the segmented store raise a
``ValueError`` naming their version), the error contract (malformed
documents always raise ``ValueError``), and the frontier / cookie-jar
state snapshots the crawlers serialise.
"""

import json

import pytest

from repro.crawler.checkpoint import (
    CrawlCheckpoint,
    atomic_write_json,
    coerce_checkpoint,
    dump_checkpoint,
    dumps_result,
    load_checkpoint,
    loads_result,
    result_to_payload,
)
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.records import CrawledComment, CrawledUrl
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.clock import VirtualClock
from repro.net.cookies import CookieJar
from repro.store import CorpusStore


class TestCheckpointer:
    def test_writes_every_n_pages(self, tmp_path):
        path = tmp_path / "state.json"
        checkpointer = Checkpointer(path, every_pages=3)
        counter = {"n": 0}

        def provider():
            counter["n"] += 1
            return {"snapshot": counter["n"]}

        checkpointer.set_provider(provider)
        for _ in range(7):
            checkpointer.tick()
        assert checkpointer.saves == 2
        assert load_state(path) == {"snapshot": 2}

    def test_seconds_trigger_uses_simulated_clock(self, tmp_path):
        clock = VirtualClock()
        checkpointer = Checkpointer(
            tmp_path / "s.json", every_pages=10_000,
            every_seconds=60.0, clock=clock,
        )
        checkpointer.set_provider(lambda: {"ok": True})
        assert checkpointer.tick() is False
        clock.sleep(61.0)
        assert checkpointer.tick() is True
        assert checkpointer.saves == 1

    def test_seconds_trigger_requires_clock(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "s.json", every_seconds=5.0)

    def test_flush_without_provider_is_a_noop(self, tmp_path):
        path = tmp_path / "state.json"
        checkpointer = Checkpointer(path)
        assert checkpointer.flush() is False
        assert not path.exists()

    def test_wrapper_envelopes_the_provider_payload(self, tmp_path):
        path = tmp_path / "state.json"
        checkpointer = Checkpointer(path, every_pages=1)
        checkpointer.set_provider(lambda: {"inner": 1})
        checkpointer.set_wrapper(lambda inner: {"stage": "x", "active": inner})
        checkpointer.tick()
        assert load_state(path) == {"stage": "x", "active": {"inner": 1}}

    def test_wrapper_runs_even_with_cleared_provider(self, tmp_path):
        """The pipeline flushes stage transitions with no active crawler."""
        path = tmp_path / "state.json"
        checkpointer = Checkpointer(path)
        checkpointer.set_wrapper(lambda inner: {"stage": "tail", "active": inner})
        checkpointer.set_provider(None)
        assert checkpointer.flush() is True
        assert load_state(path) == {"stage": "tail", "active": None}

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 2}
        assert list(tmp_path.iterdir()) == [path]

    def test_load_state_rejects_garbage(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_state(path)
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_state(path)


def _sample_store() -> CorpusStore:
    store = CorpusStore(segment_records=2)
    store.add_url(CrawledUrl(
        commenturl_id="u1", url="https://example.com", title="t",
        description="d", upvotes=1, downvotes=0,
    ))
    store.add_comment(CrawledComment(
        comment_id="c1", author_id="a1", commenturl_id="u1",
        text="hello", parent_comment_id=None, created_at_epoch=123,
        shadow_label="nsfw",
    ))
    store.add_comment(CrawledComment(
        comment_id="c2", author_id="a1", commenturl_id="u1",
        text="again", parent_comment_id="c1", created_at_epoch=124,
    ))
    return store


class TestV3Roundtrip:
    def _checkpoint(self) -> CrawlCheckpoint:
        frontier = CrawlFrontier(["u1", "u2"])
        frontier.pop()
        jar = CookieJar()
        jar.set_simple("session", "tok", "dissenter.com")
        return CrawlCheckpoint(
            crawler="dissenter",
            stage="comment_pages",
            cursor={"index": 4, "visited_authors": ["a1"]},
            store=_sample_store().snapshot(),
            frontier=frontier.to_state(),
            stats={"comment_pages_parsed": 1},
            cookies=jar.to_state(),
        )

    def test_payload_roundtrip(self):
        checkpoint = self._checkpoint()
        payload = checkpoint.to_payload()
        assert payload["version"] == 3
        restored = CrawlCheckpoint.from_payload(payload)
        assert restored.crawler == "dissenter"
        assert restored.stage == "comment_pages"
        assert restored.cursor == checkpoint.cursor
        assert restored.frontier == checkpoint.frontier
        assert restored.stats == checkpoint.stats
        assert restored.cookies == checkpoint.cookies
        assert restored.store == checkpoint.store
        replayed = CorpusStore()
        replayed.restore_payload(restored.store)
        assert replayed.snapshot() == _sample_store().snapshot()

    def test_file_roundtrip_survives_json(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint = self._checkpoint()
        dump_checkpoint(checkpoint, path)
        restored = load_checkpoint(path)
        assert restored.to_payload() == checkpoint.to_payload()

    def test_v2_document_still_parses_and_replays(self):
        """A pre-store (v2) file no longer resumes: it is rejected with a
        ``ValueError`` naming its version, never mis-read."""
        result = CorpusStore()
        result.add_url(CrawledUrl(
            commenturl_id="u1", url="https://example.com", title="t",
            description="d", upvotes=1, downvotes=0,
        ))
        result.add_comment(CrawledComment(
            comment_id="c1", author_id="a1", commenturl_id="u1",
            text="hello", parent_comment_id=None, created_at_epoch=123,
            shadow_label="nsfw",
        ))
        v2_payload = {
            "version": 2,
            "crawler": "dissenter",
            "stage": "comment_pages",
            "cursor": {"index": 4},
            "result": result_to_payload(result),
            "frontier": None,
            "stats": None,
            "cookies": None,
        }
        with pytest.raises(ValueError, match="version 2"):
            CrawlCheckpoint.from_payload(v2_payload)

    def test_coerce_accepts_payload_or_object(self):
        checkpoint = self._checkpoint()
        assert coerce_checkpoint(checkpoint, "dissenter") is checkpoint
        parsed = coerce_checkpoint(checkpoint.to_payload(), "dissenter")
        assert parsed.stage == "comment_pages"

    def test_coerce_rejects_foreign_crawler(self):
        checkpoint = self._checkpoint()
        with pytest.raises(ValueError, match="belongs to crawler"):
            coerce_checkpoint(checkpoint, "youtube")

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"version": 1, "crawler": "dissenter", "stage": "x"},
            {"version": 2},
            {"version": 2, "crawler": "dissenter"},
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            CrawlCheckpoint.from_payload(payload)


class TestLoadsResultErrorContract:
    """`loads_result` must always raise ValueError with context — bare
    KeyError/TypeError leaking out of a malformed document is a bug."""

    def test_roundtrip_still_works(self):
        result = CorpusStore()
        result.add_url(CrawledUrl(
            commenturl_id="u", url="https://x.test", title="", description="",
            upvotes=0, downvotes=0,
        ))
        assert loads_result(dumps_result(result)).urls.keys() == {"u"}

    @pytest.mark.parametrize(
        "document",
        [
            "",                                     # not JSON at all
            "[]",                                   # not an object
            "3",                                    # not an object
            '{"users": []}',                        # missing version
            '{"version": 99, "users": []}',         # unknown version
            '{"version": 1}',                       # missing collections
            '{"version": 1, "users": [{}], "urls": [], "comments": []}',
            '{"version": 1, "users": 17, "urls": [], "comments": []}',
            ('{"version": 1, "users": [], "urls": [],'
             ' "comments": [{"comment_id": "c"}]}'),
        ],
    )
    def test_malformed_documents_raise_value_error(self, document):
        with pytest.raises(ValueError):
            loads_result(document)

    def test_error_message_carries_context(self):
        with pytest.raises(ValueError, match="version"):
            loads_result('{"version": 99}')
        with pytest.raises(ValueError, match="JSON"):
            loads_result("{oops")


class TestFrontierState:
    def test_roundtrip_preserves_order_and_failures(self):
        frontier: CrawlFrontier[str] = CrawlFrontier(
            ["a", "b", "c"], max_retries=2
        )
        popped = frontier.pop()
        frontier.fail(popped)          # re-enqueued at the back
        restored = CrawlFrontier.from_state(frontier.to_state())
        assert list(restored.drain()) == ["b", "c", "a"]
        assert restored.to_state()["failures"] == [["a", 1]]

    def test_restored_frontier_dedupes_against_seen(self):
        frontier: CrawlFrontier[str] = CrawlFrontier(["a", "b"])
        frontier.pop()
        restored = CrawlFrontier.from_state(frontier.to_state())
        assert restored.add("a") is False      # completed before snapshot
        assert restored.add("b") is False      # still queued
        assert restored.add("c") is True

    def test_restored_failure_budget_is_respected(self):
        frontier: CrawlFrontier[str] = CrawlFrontier(["a"], max_retries=1)
        frontier.fail(frontier.pop())
        restored = CrawlFrontier.from_state(frontier.to_state())
        item = restored.pop()
        assert restored.fail(item) is False    # budget spent pre-snapshot
        assert restored.permanently_failed() == ["a"]

    def test_completed_counter_survives(self):
        frontier: CrawlFrontier[str] = CrawlFrontier(["a", "b"])
        frontier.pop()
        assert CrawlFrontier.from_state(frontier.to_state()).completed == 1

    @pytest.mark.parametrize(
        "state", [{}, {"queue": []}, {"queue": [], "seen": [], "failures": 3,
                                      "max_retries": 1, "completed": 0}],
    )
    def test_malformed_state_raises_value_error(self, state):
        with pytest.raises(ValueError):
            CrawlFrontier.from_state(state)


class TestCookieJarState:
    def test_roundtrip(self):
        jar = CookieJar()
        jar.set_simple("session", "tok", "dissenter.com")
        jar.set_simple("pref", "1", "gab.com")
        restored = CookieJar.from_state(jar.to_state())
        assert len(restored) == 2
        assert restored.cookie_header_for(
            "https://dissenter.com/discussion/x"
        ) == "session=tok"

    def test_malformed_state_raises_value_error(self):
        with pytest.raises(ValueError):
            CookieJar.from_state([{"name": "only"}])
