"""Crawled-data records.

Everything in here was parsed out of HTTP responses; nothing comes from
the generator's ground truth.  The crawl assembles these records into a
:class:`repro.store.CorpusStore` — the one corpus type — and the §4
analyses in :mod:`repro.core` read them from there, exactly as the
paper's analyses operated on its crawl corpus.  The test suite closes the
loop by comparing them against the world's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CrawledComment",
    "CrawledGabAccount",
    "CrawledUrl",
    "CrawledUser",
    "CrawledYouTubeItem",
]


@dataclass
class CrawledGabAccount:
    """One Gab account recovered through the API enumeration."""

    gab_id: int
    username: str
    display_name: str
    created_at_iso: str
    followers_count: int = 0
    following_count: int = 0


@dataclass
class CrawledUser:
    """One Dissenter user assembled from home + comment pages."""

    username: str
    author_id: str
    display_name: str = ""
    bio: str = ""
    commented_url_ids: list[str] = field(default_factory=list)
    # From the hidden commentAuthor blob (None until a comment page of
    # theirs has been crawled).
    language: str | None = None
    permissions: dict[str, bool] = field(default_factory=dict)
    view_filters: dict[str, bool] = field(default_factory=dict)

    @property
    def created_at(self) -> int:
        """Creation time decoded from the author-id (§2.2)."""
        return int(self.author_id[:8], 16)


@dataclass
class CrawledUrl:
    """One comment page's URL-level data."""

    commenturl_id: str
    url: str
    title: str
    description: str
    upvotes: int
    downvotes: int

    @property
    def net_votes(self) -> int:
        return self.upvotes - self.downvotes

    @property
    def first_seen(self) -> int:
        """First-appearance time decoded from the commenturl-id."""
        return int(self.commenturl_id[:8], 16)


@dataclass
class CrawledComment:
    """One comment or reply."""

    comment_id: str
    author_id: str
    commenturl_id: str
    text: str
    parent_comment_id: str | None = None
    created_at_epoch: int = 0
    # Filled in by the shadow crawl diff (§3.2): which authenticated view
    # was required to see this comment.
    shadow_label: str | None = None     # None | "nsfw" | "offensive"

    @property
    def is_reply(self) -> bool:
        return self.parent_comment_id is not None

    @property
    def created_at(self) -> int:
        """Creation time decoded from the comment-id."""
        return int(self.comment_id[:8], 16)


@dataclass
class CrawledYouTubeItem:
    """YouTube metadata recovered by the render crawler."""

    url: str
    kind: str
    status: str
    title: str = ""
    owner: str = ""
    comments_disabled: bool = False

    @property
    def is_active(self) -> bool:
        return self.status == "OK"
