"""Failure-injection integration: the crawl must survive a flaky wire.

§3.2: "we monitor request timeouts and re-request missed pages.  We
repeat this process until all pages have been successfully parsed."
These tests run the crawl over a transport that injects timeouts and 5xx
responses, and require the recovered corpus to be identical to a
fault-free crawl.
"""

import pytest

from repro.core.pipeline import ReproductionPipeline
from repro.crawler.dissenter_crawl import DissenterCrawler
from repro.crawler.shadow import ShadowCrawler
from repro.platform.config import WorldConfig


@pytest.fixture(scope="module")
def faulty_and_clean():
    config = WorldConfig(
        scale=0.0015, seed=31,
        fault_timeout_rate=0.05, fault_error_rate=0.05,
    )
    clean = ReproductionPipeline(config, with_faults=False)
    faulty = ReproductionPipeline(config, with_faults=True)

    def collect(pipeline):
        # stage_crawl's detect → crawl → recrawl → shadow sequence, on the
        # crawler classes so the Dissenter crawler's stats stay in reach.
        enum = pipeline.enumerate_gab()
        crawler = DissenterCrawler(pipeline.client)
        corpus = crawler.crawl(crawler.detect_accounts(enum.usernames()))
        while crawler.stats.comment_pages_failed:
            if crawler.recrawl_failures(corpus) == 0:
                break
        ShadowCrawler(pipeline.client, pipeline.origins.dissenter).uncover(corpus)
        return enum, corpus, crawler, pipeline

    return collect(clean), collect(faulty)


class TestFaultResilience:
    def test_faults_actually_injected(self, faulty_and_clean):
        _, (_, _, _, faulty_pipeline) = faulty_and_clean
        transport = faulty_pipeline.origins.transport
        assert transport.faults_injected > 0
        assert faulty_pipeline.client.stats.retries > 0

    def test_corpus_identical_despite_faults(self, faulty_and_clean):
        (_, clean_corpus, _, _), (_, faulty_corpus, _, _) = faulty_and_clean
        assert set(clean_corpus.users) == set(faulty_corpus.users)
        assert set(clean_corpus.urls) == set(faulty_corpus.urls)
        assert set(clean_corpus.comments) == set(faulty_corpus.comments)

    def test_shadow_labels_identical(self, faulty_and_clean):
        (_, clean_corpus, _, _), (_, faulty_corpus, _, _) = faulty_and_clean
        clean_labels = {
            cid: c.shadow_label for cid, c in clean_corpus.comments.items()
        }
        faulty_labels = {
            cid: c.shadow_label for cid, c in faulty_corpus.comments.items()
        }
        assert clean_labels == faulty_labels

    def test_no_permanent_failures_remain(self, faulty_and_clean):
        _, (_, _, crawler, _) = faulty_and_clean
        assert crawler.stats.comment_pages_failed == []

    def test_enumeration_complete_despite_faults(self, faulty_and_clean):
        (clean_enum, _, _, _), (faulty_enum, _, _, _) = faulty_and_clean
        assert {a.gab_id for a in clean_enum.accounts} == {
            a.gab_id for a in faulty_enum.accounts
        }
