"""Stats objects must merge exactly when hammered from worker threads.

The fetch engine merges on the driving thread, but the stats objects are
public and any caller may share one between threads — so every shared
counter goes through a lock.
These tests hammer the mutation APIs from many threads and assert the
final counts are exact (a bare ``+=`` on a dataclass field loses updates
under the GIL's bytecode-level interleaving).
"""

import threading

from repro.crawler.dissenter_crawl import CrawlStats
from repro.net.client import ClientStats
from repro.net.http import Response

THREADS = 8
ROUNDS = 2500


def hammer(worker):
    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestClientStatsConcurrency:
    def test_bump_is_exact_across_threads(self):
        stats = ClientStats()

        def worker():
            for _ in range(ROUNDS):
                stats.bump("requests")
                stats.bump("retries", 2)

        hammer(worker)
        assert stats.requests == THREADS * ROUNDS
        assert stats.retries == THREADS * ROUNDS * 2

    def test_record_response_is_exact_across_threads(self):
        stats = ClientStats()
        ok = Response(status=200, body=b"x" * 10)
        missing = Response(status=404, body=b"y" * 3)

        def worker():
            for i in range(ROUNDS):
                stats.record_response(ok if i % 2 == 0 else missing)

        hammer(worker)
        total = THREADS * ROUNDS
        assert stats.status_counts[200] == total // 2
        assert stats.status_counts[404] == total // 2
        assert stats.bytes_received == (total // 2) * 10 + (total // 2) * 3


class TestCrawlStatsConcurrency:
    def test_bump_and_record_failed_are_exact(self):
        stats = CrawlStats()

        def worker():
            for i in range(ROUNDS):
                stats.bump("comment_pages_parsed")
                stats.bump("author_pages_visited", 3)
                if i % 50 == 0:
                    stats.record_failed(f"url-{i}")

        hammer(worker)
        assert stats.comment_pages_parsed == THREADS * ROUNDS
        assert stats.author_pages_visited == THREADS * ROUNDS * 3
        assert len(stats.comment_pages_failed) == THREADS * (ROUNDS // 50)

    def test_round_trip_unaffected_by_lock(self):
        stats = CrawlStats(usernames_probed=7, accounts_detected=3)
        stats.record_failed("abc")
        clone = CrawlStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        # The rebuilt instance has its own lock and stays mutable.
        clone.bump("usernames_probed")
        assert clone.usernames_probed == 8
