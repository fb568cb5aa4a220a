"""Tests for comment-thread structure analysis."""


from repro.core.threads import analyze_threads
from repro.crawler.records import CrawledComment, CrawledUrl
from repro.store import CorpusStore


def _chain_corpus(depth: int) -> CorpusStore:
    """One URL with a reply chain of the given depth."""
    result = CorpusStore()
    cid = "f" * 24
    result.add_url(CrawledUrl(
        commenturl_id=cid, url="https://e.com/x", title="", description="",
        upvotes=0, downvotes=0,
    ))
    parent = None
    for i in range(depth + 1):
        comment_id = f"{i:024x}"
        result.add_comment(CrawledComment(
            comment_id=comment_id, author_id="a" * 24, commenturl_id=cid,
            text="x" * (i + 1), parent_comment_id=parent,
        ))
        parent = comment_id
    return result


class TestAnalyzeThreads:
    def test_chain_depth(self):
        structure = analyze_threads(_chain_corpus(depth=5))
        assert structure.max_depth == 5
        assert structure.reply_count == 5
        assert structure.depth_histogram[0] == 1
        assert structure.depth_histogram[5] == 1

    def test_deep_chain_no_recursion_limit(self):
        # Far beyond Python's default recursion limit.
        structure = analyze_threads(_chain_corpus(depth=3000))
        assert structure.max_depth == 3000

    def test_longest_comment_tracked(self):
        structure = analyze_threads(_chain_corpus(depth=3))
        assert structure.max_comment_length == 4
        assert structure.longest_comment_prefix == "xxxx"

    def test_orphan_reply_counted(self):
        result = _chain_corpus(depth=1)
        reply = result.comments[f"{1:024x}"]
        reply.parent_comment_id = "e" * 24   # parent never crawled
        structure = analyze_threads(result)
        assert structure.orphan_replies == 1
        # The missing parent is treated as a depth-0 phantom, so the
        # orphan reply itself sits at depth 1.
        assert structure.max_depth == 1

    def test_empty_corpus(self):
        structure = analyze_threads(CorpusStore())
        assert structure.total_comments == 0
        assert structure.reply_fraction == 0.0


class TestPipelineThreads:
    def test_paper_observations_hold(self, pipeline_report):
        structure = analyze_threads(pipeline_report.corpus)
        # Replies nest beyond depth 1 (reply-to-reply is valid, §3.2).
        assert structure.max_depth >= 2
        # The planted "ha" * 45k mega-comment is recovered through HTTP.
        assert structure.max_comment_length > 90_000
        assert structure.longest_comment_prefix.startswith("ha ha")
        # Roughly a third of comments are replies (generator's 35%).
        assert 0.2 < structure.reply_fraction < 0.5
        assert structure.max_thread_size >= 10
