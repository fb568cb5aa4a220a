"""Malformed CrawlStats / ClientStats payloads raise ValueError.

``CrawlStats`` rides in every Dissenter crawl checkpoint, so a damaged
payload must end in a ``ValueError``, never a traceback deeper in the
resume path; ``ClientStats.from_dict`` keeps the same contract.
"""

import pytest

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.dissenter_crawl import CrawlStats, DissenterCrawler
from repro.net.client import ClientStats


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
