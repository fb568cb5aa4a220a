"""Comment-thread structure analysis (§3.2's observations).

The paper notes two structural facts about Dissenter threads: replies
nest without practical depth limit ("a reply to a reply to a reply is
valid"), and comment length is unbounded (the longest comment found was
>90k characters — "ha" repeated 45k times).  This module measures both
over a crawled corpus: the reply-depth distribution, thread fan-out, and
the comment-length tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.store import CorpusStore

__all__ = ["ThreadStructure", "analyze_threads"]


@dataclass
class ThreadStructure:
    """Structural statistics of the comment forest."""

    total_comments: int
    reply_count: int
    max_depth: int
    depth_histogram: dict[int, int] = field(default_factory=dict)
    max_comment_length: int = 0
    longest_comment_prefix: str = ""
    mean_thread_size: float = 0.0
    max_thread_size: int = 0
    orphan_replies: int = 0     # replies whose parent was never crawled

    @property
    def reply_fraction(self) -> float:
        return self.reply_count / self.total_comments if self.total_comments else 0.0


def analyze_threads(result: CorpusStore) -> ThreadStructure:
    """Measure thread structure over the crawled corpus.

    Depth is computed iteratively with memoisation (threads can nest
    arbitrarily deep, so no recursion).
    """
    comments = result.comments
    depth_cache: dict[str, int] = {}
    orphans = 0

    def depth_of(comment_id: str) -> int:
        # Walk up to a known ancestor, then unwind.
        chain: list[str] = []
        current = comment_id
        while current not in depth_cache:
            comment = comments.get(current)
            if comment is None:
                # Parent missing from the crawl (e.g. a hidden parent seen
                # only through its visible reply).
                depth_cache[current] = 0
                break
            parent = comment.parent_comment_id
            chain.append(current)
            if parent is None:
                depth_cache[current] = 0
                chain.pop()
                break
            current = parent
        while chain:
            node = chain.pop()
            parent = comments[node].parent_comment_id
            depth_cache[node] = depth_cache[parent] + 1 if parent else 0
        return depth_cache[comment_id]

    histogram: dict[int, int] = {}
    reply_count = 0
    max_depth = 0
    longest = ("", 0)
    for comment_id, comment in comments.items():
        if comment.is_reply:
            reply_count += 1
            if comment.parent_comment_id not in comments:
                orphans += 1
        d = depth_of(comment_id)
        histogram[d] = histogram.get(d, 0) + 1
        max_depth = max(max_depth, d)
        if len(comment.text) > longest[1]:
            longest = (comment.text, len(comment.text))

    thread_sizes = [len(v) for v in result.comments_by_url().values()]
    return ThreadStructure(
        total_comments=len(comments),
        reply_count=reply_count,
        max_depth=max_depth,
        depth_histogram=histogram,
        max_comment_length=longest[1],
        longest_comment_prefix=longest[0][:40],
        mean_thread_size=float(np.mean(thread_sizes)) if thread_sizes else 0.0,
        max_thread_size=max(thread_sizes) if thread_sizes else 0,
        orphan_replies=orphans,
    )
