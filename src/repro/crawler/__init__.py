"""The Dissenter measurement crawler (§3).

This package reproduces the paper's collection methodology end to end,
over the HTTP substrate only — it never touches the world's ground-truth
objects:

1. :mod:`gab_enum` exhaustively enumerates Gab's integer account IDs
   through the JSON API (§3.1).
2. :mod:`dissenter_crawl` probes ``dissenter.com/user/<name>`` for every
   Gab username, detects Dissenter accounts by response size, spiders
   home pages, comment pages and single-comment pages (with the hidden
   ``commentAuthor`` metadata) (§3.1-3.2).
3. :mod:`shadow` re-spiders with authenticated opt-in sessions to uncover
   the NSFW and "offensive" shadow overlay (§3.2).
4. :mod:`youtube_crawl` renders YouTube pages to recover video metadata
   from the JavaScript blob (§3.3).
5. :mod:`social_crawl` walks the paginated Gab follower API at one
   request per second, honouring the rate-limit headers (§3.4).
6. :mod:`reddit_crawl` matches usernames against Reddit and pulls comment
   histories from Pushshift (§4.4.1).
7. :mod:`validation` re-requests failures, cross-checks ID-encoded
   timestamps against crawl observations, and manually verifies a sample
   of shadow comments — the paper's §3.2 validation steps.
"""

from repro.crawler.dissenter_crawl import DissenterCrawler
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.gab_enum import GabEnumerator
from repro.crawler.records import (
    CrawledComment,
    CrawledGabAccount,
    CrawledUrl,
    CrawledUser,
)
from repro.crawler.reddit_crawl import RedditMatcher
from repro.crawler.shadow import ShadowCrawler
from repro.crawler.social_crawl import SocialGraphCrawler
from repro.crawler.validation import CrawlValidator
from repro.crawler.youtube_crawl import YouTubeCrawler

__all__ = [
    "CrawlFrontier",
    "CrawlValidator",
    "CrawledComment",
    "CrawledGabAccount",
    "CrawledUrl",
    "CrawledUser",
    "DissenterCrawler",
    "GabEnumerator",
    "RedditMatcher",
    "ShadowCrawler",
    "SocialGraphCrawler",
    "YouTubeCrawler",
]
