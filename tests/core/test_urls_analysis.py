"""Unit tests for URL analysis helpers and the Table 2 census."""

import pytest

from repro.core.urls import analyze_urls, second_level_domain, tld_of
from repro.crawler.records import CrawledComment, CrawledUrl
from repro.store import CorpusStore


class TestTldOf:
    def test_simple(self):
        assert tld_of("https://example.com/page") == ".com"
        assert tld_of("http://site.org/") == ".org"

    def test_composite_suffix_counts_as_country(self):
        assert tld_of("https://bbc.co.uk/news") == ".uk"

    def test_non_network_schemes(self):
        assert tld_of("file:///C:/doc.pdf") is None
        assert tld_of("chrome://startpage/") is None

    def test_port_stripped(self):
        assert tld_of("https://example.com:8443/x") == ".com"


class TestSecondLevelDomain:
    def test_simple(self):
        assert second_level_domain("https://www.example.com/a") == "example.com"

    def test_composite(self):
        assert second_level_domain("https://www.bbc.co.uk/a") == "bbc.co.uk"

    def test_bare_host(self):
        assert second_level_domain("https://localhost/") is None

    def test_non_network(self):
        assert second_level_domain("file:///C:/x") is None


def _result_with_urls(urls_and_counts) -> CorpusStore:
    result = CorpusStore()
    for index, (url, n_comments) in enumerate(urls_and_counts):
        cid = f"{index:024x}"
        result.add_url(CrawledUrl(
            commenturl_id=cid, url=url, title="", description="",
            upvotes=0, downvotes=0,
        ))
        for j in range(n_comments):
            comment_id = f"{index:012x}{j:012x}"
            result.add_comment(CrawledComment(
                comment_id=comment_id, author_id="b" * 24,
                commenturl_id=cid, text="x",
            ))
    return result.seal()


class TestAnalyzeUrls:
    def test_counts_and_fractions(self):
        result = _result_with_urls([
            ("https://youtube.com/watch?v=a", 1),
            ("https://youtube.com/watch?v=b", 1),
            ("https://breitbart.com/x", 2),
            ("http://breitbart.com/x", 0),          # protocol duplicate
            ("https://bbc.co.uk/y/", 0),
            ("https://bbc.co.uk/y", 3),             # trailing-slash twin
            ("file:///C:/Users/doc.pdf", 1),
            ("https://a.com/p?x=1&y=2", 1),         # multi-param
        ])
        stats = analyze_urls(result)
        assert stats.total_urls == 8
        assert stats.domain_counts["youtube.com"] == 2
        assert stats.tld_counts[".uk"] == 2
        assert stats.scheme_counts["file"] == 1
        assert stats.protocol_duplicates == 1
        assert stats.trailing_slash_duplicates == 1
        assert stats.multi_param_urls == 1
        assert stats.domain_fraction("youtube.com") == pytest.approx(0.25)

    def test_median_volume_by_domain(self):
        result = _result_with_urls([
            ("https://fringe.com/one", 100),
            ("https://big.com/a", 1),
            ("https://big.com/b", 3),
        ])
        stats = analyze_urls(result)
        assert stats.median_volume_by_domain["fringe.com"] == 100
        assert stats.median_volume_by_domain["big.com"] == 2
        assert stats.top_volume_urls[0][0] == 100

    def test_top_helpers(self):
        result = _result_with_urls([
            ("https://a.com/1", 0),
            ("https://a.com/2", 0),
            ("https://b.org/1", 0),
        ])
        stats = analyze_urls(result)
        assert stats.top_domains(1) == [("a.com", 2)]
        assert stats.top_tlds(1) == [(".com", 2)]


class TestTable2Reproduction:
    """The crawled universe must land near Table 2's headline mix."""

    def test_tld_mix(self, pipeline_report):
        stats = pipeline_report.url_table
        assert 0.65 < stats.tld_fraction(".com") < 0.88   # paper: 77.6%
        assert stats.tld_fraction(".uk") > 0.02           # paper: 7.5%

    def test_youtube_is_top_domain(self, pipeline_report):
        stats = pipeline_report.url_table
        top_domain, _count = stats.top_domains(1)[0]
        assert top_domain == "youtube.com"
        assert 0.12 < stats.domain_fraction("youtube.com") < 0.30

    def test_https_dominates(self, pipeline_report):
        stats = pipeline_report.url_table
        https = stats.scheme_counts.get("https", 0)
        assert https / stats.total_urls > 0.9

    def test_fringe_domains_lead_median_volume(self, pipeline_report):
        stats = pipeline_report.url_table
        volumes = stats.median_volume_by_domain
        fringe = max(
            volumes.get("thewatcherfiles.com", 0),
            volumes.get("deutschland.de", 0),
        )
        assert fringe > 20
        assert volumes.get("youtube.com", 99) <= 2   # paper: median 1
