"""Tests for the §6 future-work implementations: covert channels and the
pre-emptive content-owner defense."""

import pytest

from repro.core.covert import find_covert_channels
from repro.core.defense import simulate_preemptive_defense
from repro.core.scoring import ScoreStore
from repro.crawler.records import CrawledComment, CrawledUrl
from repro.store import CorpusStore


def _corpus() -> CorpusStore:
    result = CorpusStore()
    specs = [
        # (url, [(author, parent_index_or_None, text)])
        ("file:///C:/Users/doc.pdf", [
            ("a" * 24, None, "meet at the usual place"),
            ("b" * 24, 0, "confirmed see you there"),
            ("a" * 24, 1, "bring the files"),
        ]),
        ("chrome://startpage/", [
            ("c" * 24, None, "hello world"),
        ]),
        ("https://news.example.com/story", [
            ("d" * 24, None, "you pathetic disgusting morons are all trash"),
            ("e" * 24, None, "worthless braindead garbage everywhere"),
            ("f" * 24, None, "the article was interesting and important"),
        ]),
        ("https://gone.invalid/page", [
            ("a" * 24, None, "second venue if the first is hot"),
            ("b" * 24, 0, "understood"),
        ]),
    ]
    counter = 0
    for index, (url, comments) in enumerate(specs):
        cid = f"{index:024x}"
        result.add_url(CrawledUrl(
            commenturl_id=cid, url=url, title="", description="",
            upvotes=0, downvotes=0,
        ))
        ids = []
        for author, parent, text in comments:
            comment_id = f"{counter:024x}"
            counter += 1
            result.add_comment(CrawledComment(
                comment_id=comment_id, author_id=author, commenturl_id=cid,
                text=text,
                parent_comment_id=ids[parent] if parent is not None else None,
            ))
            ids.append(comment_id)
    return result


class TestCovertChannels:
    def test_non_network_schemes_flagged(self):
        analysis = find_covert_channels(_corpus())
        reasons = analysis.by_reason()
        assert reasons.get("non-network-scheme") == 2
        schemes = {a.scheme for a in analysis.anchors}
        assert schemes == {"file", "chrome"}

    def test_unresolvable_hosts_flagged_when_known(self):
        analysis = find_covert_channels(
            _corpus(), resolvable_hosts={"news.example.com"}
        )
        reasons = analysis.by_reason()
        assert reasons.get("unresolvable-host") == 1
        assert reasons.get("non-network-scheme") == 2

    def test_closed_conversation_signature(self):
        analysis = find_covert_channels(_corpus())
        file_anchor = next(a for a in analysis.anchors if a.scheme == "file")
        assert file_anchor.n_authors == 2
        assert file_anchor.reply_fraction == pytest.approx(2 / 3)
        assert file_anchor.closed_conversation
        chrome_anchor = next(
            a for a in analysis.anchors if a.scheme == "chrome"
        )
        assert not chrome_anchor.closed_conversation   # no replies

    def test_web_urls_not_flagged_by_default(self):
        analysis = find_covert_channels(_corpus())
        assert all(not a.url.startswith("http") for a in analysis.anchors)

    def test_candidate_fraction(self):
        analysis = find_covert_channels(_corpus())
        assert analysis.candidate_fraction == pytest.approx(0.5)

    def test_pipeline_world_contains_covert_anchors(self, pipeline_report):
        analysis = find_covert_channels(pipeline_report.corpus)
        # The universe plants file:// and chrome:// anchors; at small
        # scales few are discovered, so only the structure is asserted.
        assert analysis.total_urls == len(pipeline_report.corpus.urls)
        for anchor in analysis.anchors:
            assert anchor.scheme not in ("http", "https")


class TestPreemptiveDefense:
    def test_flood_reduces_mean_toxicity(self):
        corpus = _corpus()
        outcome = simulate_preemptive_defense(corpus, flood_factor=2.0)
        assert outcome.mean_toxicity_after < outcome.mean_toxicity_before
        assert outcome.injected_comments > 0

    def test_zero_flood_is_noop(self):
        corpus = _corpus()
        outcome = simulate_preemptive_defense(corpus, flood_factor=0.0)
        assert outcome.injected_comments == 0
        assert outcome.mean_toxicity_after == pytest.approx(
            outcome.mean_toxicity_before
        )

    def test_stronger_flood_stronger_effect(self):
        corpus = _corpus()
        weak = simulate_preemptive_defense(corpus, flood_factor=0.5)
        strong = simulate_preemptive_defense(corpus, flood_factor=4.0)
        assert strong.mean_toxicity_after < weak.mean_toxicity_after

    def test_first_screen_effect(self):
        corpus = _corpus()
        store = ScoreStore()
        outcome = simulate_preemptive_defense(
            corpus, flood_factor=3.0, store=store
        )
        assert outcome.top_slot_toxic_after <= outcome.top_slot_toxic_before

    def test_targeted_defense(self):
        corpus = _corpus()
        toxic_url = next(
            cid for cid, u in corpus.urls.items()
            if "news.example.com" in u.url
        )
        outcome = simulate_preemptive_defense(
            corpus, target_urls=[toxic_url], flood_factor=1.0
        )
        assert outcome.urls_defended == 1
        assert outcome.injected_comments == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_preemptive_defense(_corpus(), flood_factor=-1)
        with pytest.raises(ValueError):
            simulate_preemptive_defense(CorpusStore())

    def test_cost_metric(self):
        outcome = simulate_preemptive_defense(_corpus(), flood_factor=1.0)
        if outcome.mean_reduction > 0:
            assert outcome.cost_per_point > 0
