"""ServeApp endpoint tests over the synthetic sealed store."""

import json

import pytest

from repro.crawler.records import CrawledComment, CrawledUser
from repro.net.clock import VirtualClock
from repro.net.http import Response
from repro.serve import ServeApp, corpus_manifest_hash
from repro.store import CorpusStore

from tests.oracles.serve import summary_url_payload, summary_user_payload
from tests.serve.conftest import build_synthetic_store, get, mount

BASE = f"https://{ServeApp.HOST}"


def _json(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


class TestRouting:
    @pytest.fixture(scope="class")
    def stack(self, synthetic_store, synthetic_scores):
        return mount(synthetic_store, synthetic_scores)

    @pytest.mark.parametrize(
        ("path", "status"),
        [
            ("/api/status", 200),
            ("/api/thread/0001feed", 200),
            ("/api/thread/nope", 404),
            ("/api/url?url=https%3A%2F%2Fexample-3.com%2Fpage", 200),
            ("/api/url?url=https%3A%2F%2Fnowhere.example%2F", 404),
            ("/api/url", 400),
            ("/api/user/user-001", 200),
            ("/api/user/ghost", 404),
            ("/api/summary/url/0001feed", 200),
            ("/api/summary/url/nope", 404),
            ("/api/summary/user/user-001", 200),
            ("/api/summary/user/ghost", 404),
            ("/api/summary/user/user-001?attribute=BOGUS", 400),
            ("/api/core", 200),
            ("/api/core/user-001", 200),
            ("/api/core/ghost", 200),
            ("/api/missing", 404),
        ],
    )
    def test_status_codes(self, stack, path, status):
        _, transport, _ = stack
        assert get(transport, f"{BASE}{path}").status == status

    def test_thread_contents(self, stack, synthetic_store):
        _, transport, _ = stack
        payload = _json(get(transport, f"{BASE}/api/thread/0001feed"))
        expected = synthetic_store.comments_by_url()["0001feed"]
        assert payload["total_comments"] == len(expected)
        assert payload["url"] == synthetic_store.urls["0001feed"].url
        assert [c["comment_id"] for c in payload["comments"]] == [
            c.comment_id for c in expected[: ServeApp.THREAD_PAGE_SIZE]
        ]

    def test_user_page_contents(self, stack, synthetic_store):
        _, transport, _ = stack
        payload = _json(get(transport, f"{BASE}/api/user/user-001"))
        user = synthetic_store.users["user-001"]
        expected = synthetic_store.comments_by_author()[user.author_id]
        assert payload["comment_count"] == len(expected)
        assert payload["first_comment_at"] == min(
            c.created_at_epoch for c in expected
        )
        assert payload["last_comment_at"] == max(
            c.created_at_epoch for c in expected
        )
        seen = dict.fromkeys(c.commenturl_id for c in expected)
        assert payload["commented_urls"] == list(seen)[
            : ServeApp.USER_URLS_LIMIT
        ]

    def test_core_listing_and_membership(self, stack):
        _, transport, _ = stack
        listing = _json(get(transport, f"{BASE}/api/core"))
        assert listing == {"size": 2, "members": ["user-001", "user-007"]}
        assert _json(get(transport, f"{BASE}/api/core/user-007"))["member"]
        assert not _json(get(transport, f"{BASE}/api/core/user-002"))["member"]


class TestConstruction:
    def test_requires_sealed_corpus(self):
        store = CorpusStore()
        store.add_user(CrawledUser(
            username="u", author_id="a", display_name="U",
            permissions={}, view_filters={},
        ))
        with pytest.raises(ValueError, match="sealed"):
            ServeApp(store, VirtualClock())

    def test_status_has_no_columns_field(self, synthetic_store):
        _, transport, _ = mount(synthetic_store)
        payload = _json(get(transport, f"{BASE}/api/status"))
        assert "columns" not in payload
        assert payload["corpus"]["comments"] == len(synthetic_store.comments)

    def test_manifest_hash_tracks_contents(self, synthetic_store):
        rebuilt = build_synthetic_store()
        assert corpus_manifest_hash(rebuilt) == corpus_manifest_hash(
            synthetic_store
        )
        grown = build_synthetic_store()
        # Same shape, one more record => different identity.
        other = CorpusStore(segment_records=128)
        other.users.update(grown.users)
        other.urls.update(grown.urls)
        other.comments.update(grown.comments)
        other.add_comment(CrawledComment(
            comment_id="fffffcafe", author_id="0001beef",
            commenturl_id="0001feed", text="one more",
            parent_comment_id=None, created_at_epoch=1_550_100_000,
            shadow_label=None,
        ))
        other.seal()
        assert corpus_manifest_hash(other) != corpus_manifest_hash(
            synthetic_store
        )


class TestSummaries:
    def test_columnar_and_dict_paths_byte_identical(
        self, synthetic_store, synthetic_scores
    ):
        _, columnar, _ = mount(synthetic_store, synthetic_scores)
        for path, oracle in (
            ("/api/summary/url/0001feed",
             summary_url_payload(synthetic_store, synthetic_scores, "0001feed")),
            ("/api/summary/url/0003feed?attribute=OBSCENE",
             summary_url_payload(
                 synthetic_store, synthetic_scores, "0003feed", "OBSCENE"
             )),
            ("/api/summary/user/user-001",
             summary_user_payload(synthetic_store, synthetic_scores, "user-001")),
            ("/api/summary/user/user-004?attribute=ATTACK_ON_AUTHOR",
             summary_user_payload(
                 synthetic_store, synthetic_scores, "user-004",
                 "ATTACK_ON_AUTHOR",
             )),
        ):
            a = get(columnar, f"{BASE}{path}")
            b = Response.json_response(oracle)
            assert a.status == b.status == 200
            assert a.body == b.body

    def test_summary_fields(self, synthetic_store, synthetic_scores):
        _, transport, _ = mount(synthetic_store, synthetic_scores)
        payload = _json(get(transport, f"{BASE}/api/summary/url/0001feed"))
        assert payload["attribute"] == "SEVERE_TOXICITY"
        assert payload["count"] == len(
            synthetic_store.comments_by_url()["0001feed"]
        )
        assert 0.0 <= payload["median"] <= payload["max"] <= 1.0

    def test_no_score_store_means_503(self, synthetic_store):
        _, transport, _ = mount(synthetic_store, score_store=None)
        assert get(transport, f"{BASE}/api/summary/url/0001feed").status == 503
        assert get(
            transport, f"{BASE}/api/summary/user/user-001"
        ).status == 503


class TestCaching:
    def test_miss_then_hit_shares_body(self, synthetic_store, synthetic_scores):
        _, transport, app = mount(synthetic_store, synthetic_scores)
        first = get(transport, f"{BASE}/api/thread/0002feed")
        second = get(transport, f"{BASE}/api/thread/0002feed")
        assert first.headers.get("X-Cache") == "MISS"
        assert second.headers.get("X-Cache") == "HIT"
        assert first.body == second.body
        assert second.elapsed < first.elapsed   # hits skip render cost
        assert app.cache.hits == 1
        assert app.cache.misses == 1

    def test_query_is_part_of_the_key(self, synthetic_store, synthetic_scores):
        _, transport, app = mount(synthetic_store, synthetic_scores)
        get(transport, f"{BASE}/api/summary/url/0001feed")
        other = get(
            transport, f"{BASE}/api/summary/url/0001feed?attribute=OBSCENE"
        )
        assert other.headers.get("X-Cache") == "MISS"
        assert app.cache.misses == 2

    def test_status_is_never_cached(self, synthetic_store, synthetic_scores):
        _, transport, app = mount(synthetic_store, synthetic_scores)
        first = get(transport, f"{BASE}/api/status")
        assert first.headers.get("X-Cache") is None
        get(transport, f"{BASE}/api/thread/0001feed")
        payload = _json(get(transport, f"{BASE}/api/status"))
        # Live counters: the second status response sees the thread miss.
        assert payload["cache"]["misses"] == app.cache.misses
        assert app.cache.hits == 0

    def test_eviction_under_tiny_cache(self, synthetic_store, synthetic_scores):
        _, transport, app = mount(
            synthetic_store, synthetic_scores, cache_entries=2
        )
        for n in range(4):
            get(transport, f"{BASE}/api/thread/{n:04x}feed")
        assert app.cache.evictions == 2
        assert len(app.cache) == 2


class TestRateLimiting:
    def test_burst_limit_and_retry_after(
        self, synthetic_store, synthetic_scores
    ):
        clock, transport, app = mount(
            synthetic_store, synthetic_scores, rate=2.0, capacity=5.0
        )
        throttled = None
        for _ in range(10):
            response = get(transport, f"{BASE}/api/core", client="hammer")
            if response.status == 429:
                throttled = response
                break
        assert throttled is not None
        assert app.throttled >= 1
        retry_after = float(throttled.headers.get("Retry-After"))
        assert retry_after > 0
        clock.sleep(retry_after)
        # The advertised wait is sufficient: honouring it always works.
        assert get(
            transport, f"{BASE}/api/core", client="hammer"
        ).status == 200

    def test_clients_are_limited_independently(
        self, synthetic_store, synthetic_scores
    ):
        _, transport, _ = mount(
            synthetic_store, synthetic_scores, rate=2.0, capacity=3.0
        )
        while get(
            transport, f"{BASE}/api/core", client="noisy"
        ).status != 429:
            pass
        assert get(
            transport, f"{BASE}/api/core", client="quiet"
        ).status == 200

    def test_throttle_skips_render_and_cache(
        self, synthetic_store, synthetic_scores
    ):
        _, transport, app = mount(
            synthetic_store, synthetic_scores, rate=1.0, capacity=1.0
        )
        assert get(
            transport, f"{BASE}/api/thread/0001feed", client="c"
        ).status == 200
        before = app.cache.stats()
        throttled = get(transport, f"{BASE}/api/thread/0005feed", client="c")
        assert throttled.status == 429
        assert throttled.headers.get("X-Cache") is None
        assert app.cache.stats() == before
