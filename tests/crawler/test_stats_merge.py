"""Merge algebra for CrawlStats / ClientStats (sharded-crawl folds).

The sharded engine folds per-worker stats in shard-id order, but a
resumed run folds restored outputs in a *different* sequence than the
original run did.  Byte-identical envelopes therefore require the merge
APIs to be commutative and associative — this pins that contract.
"""

import itertools

import pytest

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.dissenter_crawl import CrawlStats, DissenterCrawler
from repro.net.client import ClientStats


def make_crawl_stats(seed: int) -> CrawlStats:
    return CrawlStats(
        usernames_probed=seed * 7 + 1,
        accounts_detected=seed * 3,
        home_pages_parsed=seed * 5 + 2,
        comment_pages_parsed=seed * 11,
        comment_pages_failed=[f"url-{seed}-{i}" for i in range(seed % 3 + 1)],
        author_pages_visited=seed * 2 + 1,
    )


def make_client_stats(seed: int) -> ClientStats:
    return ClientStats(
        requests=seed * 13 + 1,
        retries=seed * 2,
        timeouts=seed % 4,
        redirects_followed=seed,
        bytes_received=seed * 997,
        status_counts={200: seed * 9 + 1, 404: seed % 5, 429 + seed: 1},
    )


def crawl_key(stats: CrawlStats) -> tuple:
    return (
        stats.usernames_probed,
        stats.accounts_detected,
        stats.home_pages_parsed,
        stats.comment_pages_parsed,
        tuple(stats.comment_pages_failed),
        stats.author_pages_visited,
    )


def client_key(stats: ClientStats) -> tuple:
    return (
        stats.requests,
        stats.retries,
        stats.timeouts,
        stats.redirects_followed,
        stats.bytes_received,
        tuple(stats.status_counts.items()),  # key *order* must match too
    )


def fold_crawl(order) -> tuple:
    acc = CrawlStats()
    for seed in order:
        acc.merge(make_crawl_stats(seed))
    return crawl_key(acc)


def fold_client(order) -> tuple:
    acc = ClientStats()
    for seed in order:
        acc.merge(make_client_stats(seed))
    return client_key(acc)


def test_crawl_stats_merge_is_commutative():
    keys = {fold_crawl(order) for order in itertools.permutations(range(4))}
    assert len(keys) == 1


def test_client_stats_merge_is_commutative():
    keys = {fold_client(order) for order in itertools.permutations(range(4))}
    assert len(keys) == 1


def test_crawl_stats_merge_is_associative():
    # (a . b) . c  ==  a . (b . c), merging whole accumulators.
    left = CrawlStats()
    left.merge(make_crawl_stats(1))
    left.merge(make_crawl_stats(2))
    left.merge(make_crawl_stats(3))

    bc = CrawlStats()
    bc.merge(make_crawl_stats(2))
    bc.merge(make_crawl_stats(3))
    right = CrawlStats()
    right.merge(make_crawl_stats(1))
    right.merge(bc)

    assert crawl_key(left) == crawl_key(right)


def test_client_stats_merge_is_associative():
    left = ClientStats()
    left.merge(make_client_stats(1))
    left.merge(make_client_stats(2))
    left.merge(make_client_stats(3))

    bc = ClientStats()
    bc.merge(make_client_stats(2))
    bc.merge(make_client_stats(3))
    right = ClientStats()
    right.merge(make_client_stats(1))
    right.merge(bc)

    assert client_key(left) == client_key(right)


def test_merging_empty_stats_is_identity():
    crawl = CrawlStats()
    crawl.merge(make_crawl_stats(2))
    crawl.merge(CrawlStats())
    assert crawl_key(crawl) == fold_crawl([2])

    client = ClientStats()
    client.merge(make_client_stats(2))
    client.merge(ClientStats())
    assert client_key(client) == fold_client([2])


def test_client_merge_serializes_identically_regardless_of_order():
    """The envelope-facing form — to_dict() bytes — is order-insensitive."""
    forward = ClientStats()
    for seed in range(4):
        forward.merge(make_client_stats(seed))
    backward = ClientStats()
    for seed in reversed(range(4)):
        backward.merge(make_client_stats(seed))
    assert forward.to_dict() == backward.to_dict()
    assert list(forward.to_dict()["status_counts"]) == list(
        backward.to_dict()["status_counts"]
    )


# ----------------------------------------------------------------------
# Malformed payloads at the checkpoint boundary raise ValueError.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("payload", [
    [1], "stats", 7, None,
    {"comment_pages_failed": "abc"},
    {"comment_pages_failed": [1, 2]},
    {"comment_pages_failed": {"a": 1}},
    {"usernames_probed": "many"},
])
def test_crawl_stats_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ValueError):
        CrawlStats.from_dict(payload)


@pytest.mark.parametrize("payload", [
    [1], "stats", 7, None,
    {"status_counts": [200, 1]},
    {"status_counts": "200"},
    {"status_counts": {"ok": 1}},
    {"requests": "many"},
])
def test_client_stats_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ValueError):
        ClientStats.from_dict(payload)


def test_restore_detect_rejects_non_mapping_stats():
    payload = CrawlCheckpoint(
        crawler="dissenter", stage="detect",
        cursor={"index": 0, "detected": []}, stats=[1],
    ).to_payload()
    with pytest.raises(ValueError):
        DissenterCrawler(client=None).restore_detect(payload)
