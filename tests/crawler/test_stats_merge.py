"""CrawlStats payloads round-trip, and malformed ones raise ValueError.

``CrawlStats`` rides in every Dissenter crawl checkpoint, so a damaged
payload must end in a ``ValueError``, never a traceback deeper in the
resume path.
"""

import pytest

from repro.crawler.dissenter_crawl import CrawlStats, DissenterCrawler


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


def test_restore_detect_rejects_non_mapping_stats():
    fields = {
        "stage": "detect", "cursor": {"index": 0, "detected": []},
        "stats": [1],
    }
    with pytest.raises(ValueError):
        DissenterCrawler(client=None).restore_detect(fields)


def test_crawl_stats_round_trip():
    stats = CrawlStats(usernames_probed=7, accounts_detected=3)
    stats.comment_pages_failed.append("abc")
    clone = CrawlStats.from_dict(stats.to_dict())
    assert clone == stats
