"""Tests for the HTTP origins (the synthetic sites themselves)."""

import json

import pytest

from repro.net import HttpClient
from repro.platform.apps.html import PAGE_SIZE_THRESHOLD


@pytest.fixture()
def world_and_client(small_world, small_origins):
    return small_world, HttpClient(small_origins.transport)


class TestDissenterOrigin:
    def test_user_page_weight_contract(self, world_and_client):
        world, client = world_and_client
        user = world.dissenter.active_users()[0]
        real = client.get(f"https://dissenter.com/user/{user.username}")
        missing = client.get("https://dissenter.com/user/doesnotexist999")
        assert real.size >= PAGE_SIZE_THRESHOLD
        assert missing.status == 404
        assert missing.size < 300

    def test_user_page_lists_commented_urls(self, world_and_client):
        world, client = world_and_client
        state = world.dissenter
        user = state.active_users()[0]
        page = client.get(f"https://dissenter.com/user/{user.username}").text
        expected_ids = {
            c.commenturl_id.hex
            for c in state.comments_by_author[user.author_id.hex]
            if not c.hidden
        }
        for url_id in expected_ids:
            assert f"/discussion/{url_id}" in page

    def test_comment_page_hides_shadow_content(
        self, small_world, small_origins
    ):
        client = HttpClient(small_origins.transport)
        state = small_world.dissenter
        hidden = next(c for c in state.comments if c.nsfw)
        page = client.get(
            f"https://dissenter.com/discussion/{hidden.commenturl_id.hex}"
        ).text
        # A reply to the hidden comment may still reference it as its
        # parent, so assert on the comment block itself.
        assert f'data-comment-id="{hidden.comment_id.hex}"' not in page

    def test_authenticated_session_reveals_nsfw(
        self, small_world, small_origins
    ):
        client = HttpClient(small_origins.transport)
        state = small_world.dissenter
        hidden = next(c for c in state.comments if c.nsfw)
        token = small_origins.dissenter.create_session(nsfw=True)
        client.cookies.set_simple("session", token, "dissenter.com")
        page = client.get(
            f"https://dissenter.com/discussion/{hidden.commenturl_id.hex}"
        ).text
        assert f'data-comment-id="{hidden.comment_id.hex}"' in page

    def test_nsfw_session_does_not_reveal_offensive(
        self, small_world, small_origins
    ):
        client = HttpClient(small_origins.transport)
        state = small_world.dissenter
        hidden = next(c for c in state.comments if c.offensive)
        token = small_origins.dissenter.create_session(nsfw=True, offensive=False)
        client.cookies.set_simple("session", token, "dissenter.com")
        page = client.get(
            f"https://dissenter.com/discussion/{hidden.commenturl_id.hex}"
        ).text
        # A reply to the hidden comment may still reference it as its
        # parent, so assert on the comment block itself.
        assert f'data-comment-id="{hidden.comment_id.hex}"' not in page

    def test_comment_author_blob_commented_out(self, world_and_client):
        world, client = world_and_client
        comment = next(
            c for c in world.dissenter.comments if not c.hidden
        )
        page = client.get(
            f"https://dissenter.com/comment/{comment.comment_id.hex}"
        ).text
        assert "// var commentAuthor = " in page
        blob = page.split("// var commentAuthor = ")[1].split(";\n")[0]
        payload = json.loads(blob)[0]
        assert payload["author_id"] == comment.author_id.hex
        assert "permissions" in payload and "filters" in payload

    def test_begin_discussion_redirects_known_url(self, world_and_client):
        world, client = world_and_client
        record = world.urls.urls[0]
        response = client.get(
            "https://dissenter.com/discussion/begin",
            params={"url": record.url},
            follow_redirects=False,
        )
        assert response.status == 302
        assert record.commenturl_id.hex in response.headers.get("Location")

    def test_per_url_rate_limit_enforced(self, small_origins):
        client = HttpClient(small_origins.transport, max_retries=0)
        url = "https://dissenter.com/user/someuserthatisnotthere"
        statuses = [client.get(url).status for _ in range(12)]
        assert 429 in statuses

    def test_rate_limit_is_per_url_not_global(self, small_origins):
        """The paper's crawl was unimpeded because each URL is its own
        bucket."""
        client = HttpClient(small_origins.transport, max_retries=0)
        statuses = [
            client.get(f"https://dissenter.com/user/distinct{i}").status
            for i in range(30)
        ]
        assert 429 not in statuses


class TestGabOrigin:
    def test_account_lookup(self, world_and_client):
        world, client = world_and_client
        payload = client.get("https://gab.com/api/v1/accounts/1").json()
        assert payload["username"] == "e"

    def test_unallocated_id_error(self, world_and_client):
        _, client = world_and_client
        response = client.get("https://gab.com/api/v1/accounts/99999999")
        assert response.status == 404
        assert response.json() == {"error": "Record not found"}

    def test_deleted_account_hidden_from_api(self, world_and_client):
        world, client = world_and_client
        deleted = next(a for a in world.gab.accounts if a.is_deleted)
        response = client.get(
            f"https://gab.com/api/v1/accounts/{deleted.gab_id}"
        )
        assert response.status == 404

    def test_deleted_profile_page_appearance(self, world_and_client):
        world, client = world_and_client
        deleted = next(a for a in world.gab.accounts if a.is_deleted)
        page = client.get(f"https://gab.com/users/{deleted.username}").text
        assert "account-deleted" in page

    def test_rate_limit_headers_present(self, world_and_client):
        _, client = world_and_client
        response = client.get("https://gab.com/api/v1/accounts/1")
        assert response.headers.get("X-RateLimit-Remaining") is not None
        assert response.headers.get("X-RateLimit-Reset") is not None

    def test_followers_paginated_and_complete(self, small_world, small_origins):
        client = HttpClient(small_origins.transport)
        graph = small_world.social
        target = max(
            graph.followers, key=lambda g: len(graph.followers[g]), default=None
        )
        if target is None:
            pytest.skip("no follows in this tiny world")
        account = small_world.gab.by_id[target]
        if account.is_deleted:
            pytest.skip("busiest account deleted in this seed")
        collected = []
        page = 1
        while True:
            payload = client.get(
                f"https://gab.com/api/v1/accounts/{target}/followers",
                params={"page": page},
            ).json()
            if not payload:
                break
            collected.extend(int(e["id"]) for e in payload)
            page += 1
        expected = {
            g for g in graph.followers_of(target)
            if not small_world.gab.by_id[g].is_deleted
        }
        assert set(collected) == expected


class TestYouTubeOrigin:
    def test_static_title_is_generic(self, world_and_client):
        world, client = world_and_client
        url = next(
            u.url for u in world.urls.urls
            if u.category == "youtube" and "youtube.com" in u.url
        )
        page = client.get(url.replace("http://", "https://")).text
        assert "<title>YouTube</title>" in page

    def test_metadata_in_js_blob_only(self, world_and_client):
        world, client = world_and_client
        active = next(
            i for i in world.youtube.items.values()
            if i.is_active and "youtube.com" in i.url
        )
        page = client.get(active.url.replace("http://", "https://")).text
        blob = json.loads(page.split("var ytInitialData = ")[1].split(";</script>")[0])
        assert blob["videoDetails"]["title"] == active.title
        assert blob["videoDetails"]["author"] == active.owner
        # The human-readable title never appears outside the blob.
        assert f"<h1>{active.title}</h1>" not in page

    def test_shortlink_redirects(self, world_and_client):
        world, client = world_and_client
        short = next(
            (u.url for u in world.urls.urls if "youtu.be/" in u.url), None
        )
        if short is None:
            pytest.skip("no youtu.be URLs in this tiny world")
        response = client.get(short, follow_redirects=False)
        assert response.status == 301
        assert "youtube.com/watch?v=" in response.headers.get("Location")


class TestRedditPushshiftOrigins:
    def test_about_probe(self, world_and_client):
        world, client = world_and_client
        name = next(iter(world.reddit.accounts))
        assert client.get(f"https://reddit.com/user/{name}/about.json").ok
        missing = client.get("https://reddit.com/user/nope12345/about.json")
        assert missing.status == 404

    def test_pushshift_counts(self, world_and_client):
        world, client = world_and_client
        name, account = next(iter(world.reddit.accounts.items()))
        payload = client.get(
            "https://api.pushshift.io/reddit/search/comment/",
            params={"author": name},
        ).json()
        assert payload["metadata"]["total_results"] == account.n_comments

    def test_pushshift_requires_author(self, world_and_client):
        _, client = world_and_client
        response = client.get("https://api.pushshift.io/reddit/search/comment/")
        assert response.status == 400
