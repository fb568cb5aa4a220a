"""Malformed 200 responses from the Gab JSON API.

Every parser is total (``repro.crawler.parsing``): a 200 whose body is
not the expected JSON counts as a miss in the §3.1 ID sweep and ends
that list's pagination in the §3.4 follower crawl, instead of raising
``JSONDecodeError``/``TypeError``/``KeyError`` out of the crawl.  The
crawlers run against a fake client that serves canned bodies.
"""

import json
from dataclasses import dataclass, field

import pytest

from repro.crawler.gab_enum import GabEnumerator
from repro.crawler.parsing import parse_account_ids, parse_gab_account
from repro.crawler.social_crawl import SocialGraphCrawler
from repro.net.clock import VirtualClock
from repro.net.cookies import CookieJar
from repro.net.http import Response

MALFORMED = [
    pytest.param(b'{"id": "1", "username": "al', id="truncated"),
    pytest.param(b"[1,2]", id="list"),
    pytest.param(b"null", id="null"),
    pytest.param(b'"text"', id="string"),
    pytest.param(b"{}", id="no-id"),
    pytest.param(b'{"id": "x1", "username": "a"}', id="non-numeric-id"),
    pytest.param(b'{"id": [1], "username": "a"}', id="list-id"),
    pytest.param(b'{"id": "1", "username": 5}', id="non-string-name"),
    pytest.param(
        b'{"id": "1", "username": "a", "followers_count": "many"}',
        id="non-numeric-count",
    ),
    pytest.param(b'{"id": 1e400, "username": "a"}', id="infinite-id"),
    pytest.param(b"[" * 100_000, id="nesting-past-recursion-limit"),
    pytest.param(b"\xff\xfe", id="not-utf8"),
]


@dataclass
class _Stats:
    requests: int = 0


@dataclass
class FakeClient:
    """The part of ``HttpClient`` the Gab crawlers use, over canned bodies.

    ``bodies`` maps a URL (query included) to a 200 body; any other URL
    is a 404.
    """

    bodies: dict[str, bytes]
    clock: VirtualClock = field(default_factory=VirtualClock)
    cookies: CookieJar = field(default_factory=CookieJar)
    stats: _Stats = field(default_factory=_Stats)
    urls: list[str] = field(default_factory=list)

    def get_or_none(self, url, params=None, **kwargs):
        if params:
            url += "?" + "&".join(f"{k}={v}" for k, v in params.items())
        self.urls.append(url)
        self.stats.requests += 1
        body = self.bodies.get(url)
        if body is None:
            return Response.json_response({"error": "Record not found"}, 404)
        return Response(status=200, body=body, url=url)


def _account(gab_id: int) -> bytes:
    return json.dumps({
        "id": str(gab_id), "username": f"user{gab_id}",
        "display_name": f"User {gab_id}", "created_at": "2019-03-01T00:00:00.000Z",
        "followers_count": gab_id, "following_count": 1,
    }).encode()


API = "https://gab.com/api/v1/accounts/{}"


@pytest.mark.parametrize("body", MALFORMED)
def test_parse_gab_account_is_total(body):
    assert parse_gab_account(body.decode("utf-8", errors="replace")) is None


@pytest.mark.parametrize("body", MALFORMED + [
    pytest.param(b'[{"id": "1"}, {"name": "x"}]', id="entry-without-id"),
    pytest.param(b'[{"id": "1"}, 3]', id="non-object-entry"),
])
def test_parse_account_ids_is_total(body):
    assert parse_account_ids(body.decode("utf-8", errors="replace")) is None


def test_parse_well_formed_bodies():
    account = parse_gab_account(_account(7).decode())
    assert (account.gab_id, account.username, account.followers_count) == (7, "user7", 7)
    assert parse_account_ids('[{"id": "3"}, {"id": 4}]') == [3, 4]
    assert parse_account_ids("[]") == []


@pytest.mark.parametrize("body", MALFORMED)
def test_enumeration_counts_a_malformed_200_as_a_miss(body):
    client = FakeClient({
        API.format(1): _account(1),
        API.format(2): body,
        API.format(3): _account(3),
    })
    result = GabEnumerator(client).enumerate(max_id=4)
    assert [a.gab_id for a in result.accounts] == [1, 3]
    assert (result.ids_probed, result.misses) == (4, 2)


@pytest.mark.parametrize("body", MALFORMED)
def test_social_crawl_ends_pagination_at_a_malformed_200(body):
    base = "https://gab.com/api/v1/accounts/9"
    client = FakeClient({
        f"{base}/followers?page=1": b'[{"id": "1"}, {"id": "2"}]',
        f"{base}/followers?page=2": body,
        f"{base}/followers?page=3": b'[{"id": "3"}]',
        f"{base}/following?page=1": b'[{"id": "4"}]',
    })
    result = SocialGraphCrawler(client, floor_interval=0.0).crawl([9])
    assert result.followers == {9: [1, 2]}
    assert result.following == {9: [4]}
    assert f"{base}/followers?page=3" not in client.urls
