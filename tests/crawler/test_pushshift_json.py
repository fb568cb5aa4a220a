"""Malformed 200 responses to the Reddit and seed-discovery JSON readers.

The §4.4.1 Pushshift history pull and the §3.1 seed harvest (the
Pushshift Gab archive, the @a account lookup and @a's follower pages)
read their bodies through total parsers (``repro.crawler.parsing``): a
200 whose body is not the expected JSON is a miss, or ends that list's
pagination, instead of raising ``JSONDecodeError``/``AttributeError``
out of the crawl.  The crawlers run against the fake client of
``test_gab_json.py``.
"""

import json

import pytest

from repro.crawler.parsing import (
    parse_account_usernames,
    parse_pushshift_authors,
    parse_pushshift_history,
)
from repro.crawler.reddit_crawl import RedditMatcher
from repro.crawler.seed_discovery import SeedDiscovery
from tests.crawler.test_gab_json import MALFORMED, FakeClient, _account

#: Bodies that are JSON objects but not the shape a reader expects.
_WRONG_SHAPE = [
    pytest.param(b'{"metadata": [1], "aggs": [1]}', id="list-members"),
    pytest.param(b'{"metadata": {"total_results": "many"}}', id="non-numeric-total"),
    pytest.param(b'{"metadata": {"total_results": 1e400}}', id="infinite-total"),
    pytest.param(b'{"data": [1], "aggs": {"author": [1]}}', id="non-object-entry"),
    pytest.param(b'{"data": [{"text": "x"}], "aggs": {"author": [{"name": "x"}]}}',
                 id="entry-without-field"),
    pytest.param(b'{"data": [{"body": 5}], "aggs": {"author": [{"key": 5}]}}',
                 id="non-string-field"),
    pytest.param(b'{"data": "abc", "aggs": {"author": "abc"}}', id="string-list"),
]

HISTORY = "https://api.pushshift.io/reddit/search/comment/?author={}&size=100"
ABOUT = "https://reddit.com/user/{}/about.json"
ARCHIVE = "https://api.pushshift.io/gab/search/submission/?agg=author&page={}"
GAB = "https://gab.com/api/v1/accounts/{}"


def _history(*texts: str) -> bytes:
    return json.dumps({
        "data": [{"author": "x", "body": text} for text in texts],
        "metadata": {"total_results": 10 * len(texts)},
    }).encode()


def _archive(*names: str) -> bytes:
    return json.dumps({"aggs": {"author": [{"key": name} for name in names]}}).encode()


def _followers(*names: str) -> bytes:
    return json.dumps([{"id": "1", "username": name} for name in names]).encode()


def _torba() -> bytes:
    body = json.loads(_account(2))
    body["username"] = "a"
    return json.dumps(body).encode()


@pytest.mark.parametrize("body", MALFORMED + _WRONG_SHAPE)
def test_readers_are_total(body):
    text = body.decode("utf-8", errors="replace")
    for parse in (parse_account_usernames, parse_pushshift_authors,
                  parse_pushshift_history):
        assert parse(text) in (None, [], (0, []))


def test_readers_parse_well_formed_bodies():
    assert parse_pushshift_history(_history("hi", "there").decode()) == (20, ["hi", "there"])
    assert parse_pushshift_history("{}") == (0, [])
    assert parse_pushshift_authors(_archive("x", "y").decode()) == ["x", "y"]
    assert parse_account_usernames(_followers("x").decode()) == ["x"]


@pytest.mark.parametrize("body", MALFORMED + _WRONG_SHAPE)
def test_history_pull_counts_a_malformed_200_as_no_history(body):
    client = FakeClient({
        ABOUT.format("bob"): b"{}",
        HISTORY.format("bob"): body,
        ABOUT.format("eve"): b"{}",
        HISTORY.format("eve"): _history("hello"),
    })
    result = RedditMatcher(client).match(["bob", "eve"])
    assert result.matched_usernames == ["bob", "eve"]
    assert result.comment_counts == {"bob": 0, "eve": 10}
    assert result.sample_comments == {"eve": ["hello"]}


@pytest.mark.parametrize("body", MALFORMED + _WRONG_SHAPE)
def test_archive_mining_ends_at_a_malformed_200(body):
    client = FakeClient({
        ARCHIVE.format(1): _archive("x", "y"),
        ARCHIVE.format(2): body,
        ARCHIVE.format(3): _archive("z"),
    })
    assert SeedDiscovery(client).mine_pushshift() == {"x", "y"}
    assert ARCHIVE.format(3) not in client.urls


@pytest.mark.parametrize("body", MALFORMED)
def test_torba_lookup_counts_a_malformed_200_as_a_miss(body):
    followers = GAB.format(2) + "/followers?page=1"
    client = FakeClient({
        GAB.format(1): body,
        GAB.format(2): _torba(),
        followers: _followers("x"),
    })
    assert SeedDiscovery(client).crawl_torba_followers() == {"x"}


@pytest.mark.parametrize("body", MALFORMED + _WRONG_SHAPE + [
    pytest.param(b'[{"id": "1"}]', id="entry-without-username"),
    pytest.param(b'[{"username": 5}]', id="non-string-username"),
])
def test_follower_pages_end_at_a_malformed_200(body):
    pages = GAB.format(1) + "/followers?page={}"
    client = FakeClient({
        GAB.format(1): _torba(),
        pages.format(1): _followers("x", "y"),
        pages.format(2): body,
        pages.format(3): _followers("z"),
    })
    assert SeedDiscovery(client).crawl_torba_followers() == {"x", "y"}
    assert pages.format(3) not in client.urls
