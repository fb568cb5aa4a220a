"""Ground-truth entities of the synthetic world.

These dataclasses are what the generators in this package produce and what
the synthetic HTTP origins render into HTML/JSON.  The crawler never sees
them directly — it must re-derive everything from the rendered pages, and
the test suite checks the round trip.

Latent fields (``CommentLatent``, ``DissenterUser.toxicity_mean``) are the
generator's hidden state; they exist so tests can verify that measured
quantities track ground truth, and are never exposed over HTTP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.platform.ids import ObjectId

__all__ = [
    "Comment",
    "CommentLatent",
    "CommentUrl",
    "DissenterUser",
    "GabAccount",
    "NewsComment",
    "RedditAccount",
    "USER_FLAG_NAMES",
    "VIEW_FILTER_NAMES",
    "YouTubeItem",
]

# Flag and filter names exactly as Table 1 lists them.
USER_FLAG_NAMES: tuple[str, ...] = (
    "canLogin", "canPost", "canReport", "canChat", "canVote",
    "isBanned", "isAdmin", "isModerator",
    "is_pro", "is_donor", "is_investor", "is_premium", "is_tippable",
    "is_private", "verified",
)

VIEW_FILTER_NAMES: tuple[str, ...] = ("pro", "verified", "standard", "nsfw", "offensive")


@dataclass
class GabAccount:
    """A Gab account, addressable by its integer API ID.

    Gab IDs are a counter starting at 1 (§3.1), generally monotone in
    creation time with documented anomalies.
    """

    gab_id: int
    username: str
    display_name: str
    created_at: float
    bio: str = ""
    is_deleted: bool = False
    has_dissenter: bool = False
    # Whether the account ever posted on Gab proper.  The paper's first
    # username-harvesting attempt (mining Pushshift) could only discover
    # accounts that posted; "silent" users were invisible to it (§3.1).
    has_posted: bool = False


@dataclass
class DissenterUser:
    """A Dissenter user (necessarily also a Gab account holder).

    ``flags`` and ``view_filters`` are the §4.1.2 attribute sets surfaced
    through the hidden ``commentAuthor`` JavaScript blob.
    """

    author_id: ObjectId
    gab_id: int
    username: str
    display_name: str
    created_at: float
    bio: str = ""
    language: str = "en"
    flags: dict[str, bool] = field(default_factory=dict)
    view_filters: dict[str, bool] = field(default_factory=dict)
    toxicity_mean: float = 0.1       # latent; never rendered
    activity_weight: float = 1.0     # latent; drives comment allocation
    gab_deleted: bool = False        # true for the ~1,300 orphaned users
    in_planted_core: bool = False    # latent; hateful-core ground truth
    became_active: bool = False      # set once the user posts a comment


@dataclass
class CommentLatent:
    """Hidden per-comment attribute vector the text generator encodes.

    All values in [0, 1].  The simulated Perspective models try to recover
    these from the emitted text alone.
    """

    toxicity: float
    obscene: float
    attack: float
    reject: float

    def __post_init__(self) -> None:
        for name in ("toxicity", "obscene", "attack", "reject"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class CommentUrl:
    """A URL with a Dissenter comment page.

    ``url`` preserves the paper's messiness: protocol-only duplicates,
    trailing slashes, multi-parameter GET queries, ``file://`` and browser
    scheme URLs all occur.
    """

    commenturl_id: ObjectId
    url: str
    title: str
    description: str
    category: str               # youtube | twitter | news | social | video | other | file | browser
    bias: str                   # left | left-center | center | right-center | right | not-ranked
    first_seen: float
    upvotes: int = 0
    downvotes: int = 0
    controversy: float = 0.0    # latent; drives comment toxicity at net ~ 0

    @property
    def net_votes(self) -> int:
        return self.upvotes - self.downvotes


@dataclass
class Comment:
    """A Dissenter comment or reply."""

    comment_id: ObjectId
    author_id: ObjectId
    commenturl_id: ObjectId
    created_at: float
    text: str
    parent_comment_id: ObjectId | None = None   # None => top-level comment
    nsfw: bool = False          # labelled by the submitting user
    offensive: bool = False     # labelled by the platform
    language: str = "en"
    latent: CommentLatent | None = None

    @property
    def is_reply(self) -> bool:
        return self.parent_comment_id is not None

    @property
    def hidden(self) -> bool:
        """Hidden from unauthenticated / non-opted-in viewers (§2.2)."""
        return self.nsfw or self.offensive


@dataclass
class YouTubeItem:
    """A YouTube URL's underlying content (§3.3 / §4.2.2)."""

    url: str
    kind: str                   # video | user | channel
    title: str
    owner: str
    status: str                 # active | unavailable | private | terminated | hate_removed
    comments_disabled: bool = False

    @property
    def is_active(self) -> bool:
        return self.status == "active"


@dataclass
class RedditAccount:
    """A Reddit account (§4.4.1 username-matching baseline)."""

    username: str
    n_comments: int
    is_dissenter_person: bool   # latent: truly the same person, or a collision
    comments: list[str] = field(default_factory=list)


@dataclass
class NewsComment:
    """A comment from the NY Times / Daily Mail baseline corpora."""

    site: str                   # nytimes | dailymail
    text: str
    latent: CommentLatent | None = None
