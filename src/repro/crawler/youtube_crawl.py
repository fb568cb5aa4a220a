"""The YouTube render crawler (§3.3).

Dissenter's own comment pages show "/watch" titles and empty descriptions
for YouTube URLs, so the paper drove Selenium against YouTube to read the
metadata out of the JavaScript.  Our equivalent "render" step fetches the
page, follows youtu.be redirects, and executes the extraction against the
``ytInitialData`` blob — a plain HTML-title scraper would recover nothing
(a property the test suite asserts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable
from urllib.parse import urlsplit

from repro.crawler.checkpoint import active_cursor, cursor_count
from repro.crawler.parsing import parse_youtube_page
from repro.crawler.records import CrawledYouTubeItem
from repro.crawler.runtime import Checkpointer
from repro.net.client import HttpClient
from repro.net.http import Response
from repro.net.pool import FetchPool

__all__ = ["YouTubeCrawler", "YouTubeCrawlResult", "is_youtube_url"]


def is_youtube_url(url: str) -> bool:
    """Whether a URL points at YouTube content (incl. youtu.be links)."""
    host = urlsplit(url).netloc.lower()
    return host in ("youtube.com", "www.youtube.com", "youtu.be")


@dataclass
class YouTubeCrawlResult:
    """All recovered YouTube metadata, keyed by original URL."""

    items: dict[str, CrawledYouTubeItem] = field(default_factory=dict)
    fetch_failures: list[str] = field(default_factory=list)

    def videos(self) -> list[CrawledYouTubeItem]:
        return [i for i in self.items.values() if i.kind == "video"]

    def active_videos(self) -> list[CrawledYouTubeItem]:
        return [i for i in self.videos() if i.is_active]

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for item in self.videos():
            counts[item.status] = counts.get(item.status, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """JSON-ready snapshot (checkpointing)."""
        return {
            "items": {
                url: {
                    "url": item.url,
                    "kind": item.kind,
                    "status": item.status,
                    "title": item.title,
                    "owner": item.owner,
                    "comments_disabled": item.comments_disabled,
                }
                for url, item in self.items.items()
            },
            "fetch_failures": list(self.fetch_failures),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "YouTubeCrawlResult":
        try:
            return cls(
                items={
                    url: CrawledYouTubeItem(
                        url=entry["url"],
                        kind=entry["kind"],
                        status=entry["status"],
                        title=entry.get("title", ""),
                        owner=entry.get("owner", ""),
                        comments_disabled=bool(
                            entry.get("comments_disabled", False)
                        ),
                    )
                    for url, entry in (payload.get("items") or {}).items()
                },
                fetch_failures=list(payload.get("fetch_failures", [])),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed YouTube crawl state: {exc!r}") from exc


class YouTubeCrawler:
    """Fetch-and-render crawler for YouTube URLs."""

    def __init__(self, client: HttpClient):
        self._client = client

    def _fetch(self, url: str) -> Response | None:
        """Fetch one URL (following redirects)."""
        fetch_url = url
        if fetch_url.startswith("http://"):
            fetch_url = "https://" + fetch_url[len("http://"):]
        return self._client.get_or_none(fetch_url)

    @staticmethod
    def _extract(url: str, response: Response | None) -> CrawledYouTubeItem | None:
        """Pure extraction of the ytInitialData blob from a response."""
        if response is None or response.status != 200:
            return None
        return parse_youtube_page(url, response.text)

    def render(self, url: str) -> CrawledYouTubeItem | None:
        """Fetch one URL (following redirects) and extract the JS blob."""
        return self._extract(url, self._fetch(url))

    def crawl(
        self,
        urls: Iterable[str],
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
        pool: FetchPool | None = None,
    ) -> YouTubeCrawlResult:
        """Render every YouTube URL in the iterable.

        With a ``checkpointer``, progress is snapshotted periodically;
        on ``resume`` the same URL sequence must be passed again — the
        saved cursor indexes into it and already-rendered URLs are never
        re-fetched.
        """
        urls = list(urls)
        result = YouTubeCrawlResult()
        index = 0
        stage = "render"
        if resume is not None:
            _, cursor = active_cursor(resume, ("render", "done"))
            index = cursor_count(cursor, "index")
            result = YouTubeCrawlResult.from_dict(cursor.get("result") or {})

        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: {
                    "stage": stage,
                    "cursor": {"index": index, "result": result.to_dict()},
                }
            )

        if pool is None:
            pool = FetchPool(self._client.clock)

        def plan(capacity: int) -> list[tuple[int, str]]:
            # Non-YouTube URLs never issue a request (nor tick); each
            # job carries the cursor value past any it skipped.
            jobs: list[tuple[int, str]] = []
            position = index
            while position < len(urls) and len(jobs) < capacity:
                url = urls[position]
                position += 1
                if is_youtube_url(url):
                    jobs.append((position, url))
            return jobs

        def process(job: tuple[int, str], response: Response | None) -> None:
            nonlocal index
            index_after, url = job
            item = self._extract(url, response)
            if item is None:
                result.fetch_failures.append(url)
            else:
                result.items[url] = item
            index = index_after

        pool.run(
            plan,
            lambda job: self._fetch(job[1]),
            process,
            checkpointer=checkpointer,
        )
        index = len(urls)
        stage = "done"
        if checkpointer is not None:
            checkpointer.flush()
        return result
