"""Tests for the crawl frontier and checkpointing."""

import pytest
from hypothesis import given, strategies as st

from repro.crawler.checkpoint import dumps_result, loads_result
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.records import (
    CrawledComment,
    CrawledUrl,
    CrawledUser,
)
from repro.store import CorpusStore


class TestFrontier:
    def test_fifo_order(self):
        frontier = CrawlFrontier(["a", "b", "c"])
        assert [frontier.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_dedup_on_add(self):
        frontier = CrawlFrontier()
        assert frontier.add("x")
        assert not frontier.add("x")
        assert len(frontier) == 1

    def test_dedup_persists_after_pop(self):
        frontier = CrawlFrontier(["x"])
        frontier.pop()
        assert not frontier.add("x")
        assert len(frontier) == 0

    def test_add_many_counts_new(self):
        frontier = CrawlFrontier(["a"])
        assert frontier.add_many(["a", "b", "c"]) == 2

    def test_drain_with_mid_flight_additions(self):
        frontier = CrawlFrontier(["seed"])
        seen = []
        while frontier:
            item = frontier.pop()
            seen.append(item)
            if item == "seed":
                frontier.add("discovered")
        assert seen == ["seed", "discovered"]

    def test_fail_requeues_up_to_budget(self):
        frontier = CrawlFrontier(["x"], max_retries=2)
        frontier.pop()
        assert frontier.fail("x")      # retry 1
        frontier.pop()
        assert frontier.fail("x")      # retry 2
        frontier.pop()
        assert not frontier.fail("x")  # budget spent
        assert frontier.permanently_failed() == ["x"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            CrawlFrontier().pop()

    def test_fail_never_added_item_raises(self):
        frontier = CrawlFrontier(["x"])
        frontier.pop()
        with pytest.raises(ValueError):
            frontier.fail("y")

    def test_fail_still_queued_item_raises(self):
        frontier = CrawlFrontier(["x"])
        with pytest.raises(ValueError):
            frontier.fail("x")

    def test_completed_never_goes_negative(self):
        frontier = CrawlFrontier(["x"])
        frontier.pop()
        with pytest.raises(ValueError):
            frontier.fail("never-popped")
        assert frontier.completed == 1

    def test_requeued_item_goes_to_the_back(self):
        frontier = CrawlFrontier(["a", "b"])
        assert frontier.pop() == "a"
        assert frontier.fail("a")
        assert [frontier.pop(), frontier.pop()] == ["b", "a"]

    def test_requeued_item_counts_as_pending_again(self):
        frontier = CrawlFrontier(["a"])
        frontier.pop()
        assert frontier.fail("a")
        # "a" is back in the queue, so failing it again without popping
        # is the same un-popped bug the guard exists for.
        with pytest.raises(ValueError):
            frontier.fail("a")

    @given(st.lists(st.integers(0, 30), max_size=60))
    def test_each_item_processed_once(self, items):
        frontier = CrawlFrontier(items)
        drained = [frontier.pop() for _ in range(len(frontier))]
        assert sorted(drained) == sorted(set(items))


def _sample_result() -> CorpusStore:
    result = CorpusStore()
    user = CrawledUser(
        username="wolf1", author_id="5c780b19" + "0" * 16,
        display_name="Wolf", bio="free speech & censorship",
        commented_url_ids=["a" * 24],
        language="en",
        permissions={"canPost": True, "isBanned": False},
        view_filters={"nsfw": False},
    )
    result.add_user(user)
    url = CrawledUrl(
        commenturl_id="a" * 24, url="https://example.com/x?y=1&z=2",
        title="T", description="D", upvotes=3, downvotes=5,
    )
    result.add_url(url)
    comment = CrawledComment(
        comment_id="5c780b20" + "1" * 16, author_id=user.author_id,
        commenturl_id=url.commenturl_id, text="hello <&> world",
        parent_comment_id=None, created_at_epoch=1551371040,
        shadow_label="nsfw",
    )
    result.add_comment(comment)
    return result


class TestCheckpoint:
    def test_round_trip_lossless(self):
        original = _sample_result()
        restored = loads_result(dumps_result(original))
        assert restored.users == original.users
        assert restored.urls == original.urls
        assert restored.comments == original.comments

    def test_version_enforced(self):
        import json
        payload = json.loads(dumps_result(_sample_result()))
        payload["version"] = 999
        with pytest.raises(ValueError):
            loads_result(json.dumps(payload))

    def test_file_round_trip(self, tmp_path):
        from repro.crawler.checkpoint import dump_result, load_result
        path = tmp_path / "checkpoint.json"
        dump_result(_sample_result(), path)
        restored = load_result(path)
        assert restored.summary() == _sample_result().summary()


class TestRecords:
    def test_id_decoded_times(self):
        result = _sample_result()
        user = result.users["wolf1"]
        assert user.created_at == 0x5C780B19
        comment = next(iter(result.comments.values()))
        assert comment.created_at == 0x5C780B20

    def test_groupings(self):
        result = _sample_result()
        assert len(result.comments_by_url()["a" * 24]) == 1
        assert len(result.comments_by_author()[result.users["wolf1"].author_id]) == 1
        assert len(result.active_users()) == 1
