"""Unit tests for the resumable-crawl runtime and the active crawler's fields.

Covers the :class:`Checkpointer` cadence (page and simulated-seconds
triggers), atomic-write behaviour, a crawler's checkpoint fields round
trip, the error contract (malformed fields and documents always raise
``ValueError``), and the frontier / cookie-jar state snapshots the
checkpoints serialise.
"""

import json

import pytest

from repro.crawler.checkpoint import (
    active_cursor,
    atomic_write_json,
    cursor_count,
    cursor_strings,
    dumps_result,
    loads_result,
)
from repro.crawler.dissenter_crawl import CrawlState, DissenterCrawler
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


class TestActiveFields:
    def test_dissenter_fields_round_trip(self, tmp_path):
        frontier = CrawlFrontier(["u1", "u2"])
        frontier.pop()
        state = CrawlState(
            "comment_pages", index=4, frontier=frontier,
            visited_authors={"a1"},
        )
        crawler = DissenterCrawler(client=None)
        crawler.stats.comment_pages_parsed += 1
        state_path = tmp_path / "c.state.json"
        fields = json.loads(json.dumps(
            crawler.checkpoint(state, _sample_store(), Checkpointer(state_path))
        ))
        assert set(fields) == {"stage", "cursor", "store", "frontier", "stats"}

        resumed = DissenterCrawler(client=None)
        store = CorpusStore()
        restored = resumed.restore(fields, store, Checkpointer(state_path))
        assert restored.stage == "comment_pages"
        assert restored.index == 4
        assert restored.visited_authors == {"a1"}
        assert restored.frontier.to_state() == frontier.to_state()
        assert resumed.stats.to_dict() == crawler.stats.to_dict()
        assert store.snapshot() == _sample_store().snapshot()

    @pytest.mark.parametrize(
        "active, match",
        [
            ("not a dict", "must be an object"),
            ({"cursor": {}}, "crawler stage None"),
            ({"stage": "x"}, "crawler stage 'x'"),
            ({"stage": "home_pages", "cursor": [1]}, "cursor must be an object"),
            ({"stage": "home_pages", "cursor": {"index": -1}}, "'index'"),
            ({"stage": "home_pages", "cursor": {"visited_authors": [1]}},
             "'visited_authors'"),
            ({"stage": "home_pages", "store": [1]}, "store payload"),
        ],
    )
    def test_malformed_fields_raise_value_error(self, active, match, tmp_path):
        with pytest.raises(ValueError, match=match):
            DissenterCrawler(client=None).restore(
                active, CorpusStore(), Checkpointer(tmp_path / "c.state.json")
            )

    def test_cursor_validators(self):
        stage, cursor = active_cursor(
            {"stage": "a", "cursor": {"n": 3, "names": ["x"]}}, ("a",)
        )
        assert stage == "a"
        assert cursor_count(cursor, "n") == 3
        assert cursor_count(cursor, "absent") == 0
        assert cursor_strings(cursor, "names") == ["x"]
        assert cursor_strings(cursor, "absent") == []
        for bad in (True, 1.5, "3", None):
            with pytest.raises(ValueError, match="'n'"):
                cursor_count({"n": bad}, "n")
        with pytest.raises(ValueError, match="'names'"):
            cursor_strings({"names": "x"}, "names")


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
        assert [restored.pop() for _ in range(len(restored))] == ["b", "c", "a"]
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
