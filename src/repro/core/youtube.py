"""YouTube content analysis (§4.2.2).

Over the render-crawled YouTube metadata: content-kind breakdown
(video/channel/user), availability census (active vs the four removal
reasons), the Fox News vs CNN ownership comparison, and the fraction of
active videos with comments disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crawler.youtube_crawl import YouTubeCrawlResult, is_youtube_url
from repro.store import CorpusStore

__all__ = ["YouTubeAnalysis", "analyze_youtube"]


@dataclass
class YouTubeAnalysis:
    """§4.2.2's statistics."""

    total_items: int
    kind_counts: dict[str, int] = field(default_factory=dict)
    status_counts: dict[str, int] = field(default_factory=dict)
    owner_counts: dict[str, int] = field(default_factory=dict)
    comments_disabled: int = 0
    active_videos: int = 0
    youtube_url_fraction_of_corpus: float = 0.0

    def owner_share(self, owner: str) -> float:
        """Share of active videos uploaded by ``owner``."""
        if self.active_videos == 0:
            return 0.0
        return self.owner_counts.get(owner, 0) / self.active_videos

    @property
    def comments_disabled_fraction(self) -> float:
        if self.active_videos == 0:
            return 0.0
        return self.comments_disabled / self.active_videos

    @property
    def unavailable_videos(self) -> int:
        return sum(
            count
            for status, count in self.status_counts.items()
            if status != "OK"
        )


def analyze_youtube(
    crawl: YouTubeCrawlResult, result: CorpusStore | None = None
) -> YouTubeAnalysis:
    """Aggregate the render-crawl output.

    Args:
        crawl: the YouTube crawl result.
        result: optional Dissenter corpus, used to compute what fraction
            of all commented URLs are YouTube content.
    """
    analysis = YouTubeAnalysis(total_items=len(crawl.items))
    for item in crawl.items.values():
        analysis.kind_counts[item.kind] = (
            analysis.kind_counts.get(item.kind, 0) + 1
        )
        if item.kind != "video":
            continue
        analysis.status_counts[item.status] = (
            analysis.status_counts.get(item.status, 0) + 1
        )
        if item.is_active:
            analysis.active_videos += 1
            analysis.owner_counts[item.owner] = (
                analysis.owner_counts.get(item.owner, 0) + 1
            )
            if item.comments_disabled:
                analysis.comments_disabled += 1

    if result is not None and result.urls:
        youtube_urls = sum(
            1 for u in result.urls.values() if is_youtube_url(u.url)
        )
        analysis.youtube_url_fraction_of_corpus = youtube_urls / len(result.urls)
    return analysis
