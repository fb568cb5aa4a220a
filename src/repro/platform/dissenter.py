"""The Dissenter platform state: users, comments, replies, shadow content.

Builds the Dissenter side of the world from the Gab universe and the URL
universe, calibrated to the paper's §4 measurements:

* 77% of users join in the first full month (Fig. 2's Dissenter analogue),
* 47% of users are active (≥1 comment),
* per-user comment counts follow a heavy-tailed distribution in which the
  top ~14% of active users contribute ~90% of comments (Fig. 3),
* Table 1 user-flag and view-filter frequencies, including exactly two
  isAdmin accounts (@a and @shadowknight412), zero moderators, and a
  handful of bans,
* ~0.6% of comments NSFW-labelled, ~0.5% platform-labelled "offensive",
  both hidden from non-opted-in viewers (§2.2's shadow overlay),
* 94% English / 2% German comments (with the fringe German domain getting
  German threads),
* one pathological >90k-character comment ("ha" repeated 45k times, §3.2),
* comment trees with unbounded reply depth, and
* the planted hateful core's members made prolific and toxic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.platform.config import WorldConfig
from repro.platform.draws import Draws
from repro.platform.entities import (
    Comment,
    CommentUrl,
    DissenterUser,
    USER_FLAG_NAMES,
)
from repro.platform.gab import GabUniverse
from repro.platform.ids import ObjectIdFactory
from repro.platform.latent import (
    sample_comment_latent,
    sample_nsfw_latent,
    sample_offensive_latent,
    sample_user_toxicity_mean,
)
from repro.platform.textgen import CommentTextGenerator
from repro.platform.urlgen import UrlUniverse

__all__ = ["DissenterState", "build_dissenter_state"]

# Table 1 frequencies over active users (n = 47,165).
FLAG_FREQUENCIES: dict[str, float] = {
    "canLogin": 0.9997,
    "canPost": 0.9997,
    "canReport": 0.9999,
    "canChat": 0.9997,
    "canVote": 0.9997,
    "is_pro": 0.0267,
    "is_donor": 0.0084,
    "is_investor": 0.0029,
    "is_premium": 0.0013,
    "is_tippable": 0.0015,
    "is_private": 0.0390,
    "verified": 0.0103,
}

FILTER_FREQUENCIES: dict[str, float] = {
    "pro": 0.9985,
    "verified": 0.9987,
    "standard": 0.9989,
    "nsfw": 0.1504,
    "offensive": 0.0733,
}

NSFW_COMMENT_RATE = 10_000 / 1_680_000
OFFENSIVE_COMMENT_RATE = 8_000 / 1_680_000
REPLY_FRACTION = 0.35

# User-level language weights; the comment-level mix lands near the
# paper's 94% English / 2% German once the German fringe domain's threads
# are added (language varies hugely with seed at small scales because a
# handful of non-English users dominate their language's comment count).
LANGUAGE_MIX: tuple[tuple[str, float], ...] = (
    ("en", 0.93), ("de", 0.03), ("fr", 0.012), ("es", 0.010), ("it", 0.008),
)


@dataclass
class DissenterState:
    """Ground truth of the Dissenter platform."""

    users: list[DissenterUser]
    comments: list[Comment]
    urls: UrlUniverse
    users_by_author_id: dict[str, DissenterUser] = field(default_factory=dict)
    users_by_username: dict[str, DissenterUser] = field(default_factory=dict)
    comments_by_url: dict[str, list[Comment]] = field(default_factory=dict)
    comments_by_author: dict[str, list[Comment]] = field(default_factory=dict)
    planted_core_plan: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.users_by_author_id:
            self.users_by_author_id = {u.author_id.hex: u for u in self.users}
            self.users_by_username = {u.username: u for u in self.users}
            for comment in self.comments:
                self.comments_by_url.setdefault(
                    comment.commenturl_id.hex, []
                ).append(comment)
                self.comments_by_author.setdefault(
                    comment.author_id.hex, []
                ).append(comment)

    def active_users(self) -> list[DissenterUser]:
        """Users with at least one comment or reply."""
        return [
            u for u in self.users if u.author_id.hex in self.comments_by_author
        ]

    def visible_comments(self, url_id: str, nsfw: bool = False,
                         offensive: bool = False) -> list[Comment]:
        """Comments on a URL visible under the given view settings."""
        result = []
        for comment in self.comments_by_url.get(url_id, []):
            if comment.nsfw and not nsfw:
                continue
            if comment.offensive and not offensive:
                continue
            result.append(comment)
        return result


def _join_time(config: WorldConfig, rng: np.random.Generator,
               gab_created: float) -> float:
    """Dissenter account creation time: ~77% within the first full month.

    Only Gab accounts that already exist when the launch window closes can
    join it, so the in-window probability is inflated to 0.85 — combined
    with the Gab generator's pre-launch skew of Dissenter adopters, the
    user-level fraction lands on the paper's 77%.
    """
    launch = config.epoch_dissenter
    first_month_end = launch + 35 * 86_400
    if gab_created < first_month_end - 3600 and rng.random() < 0.85:
        t = launch + rng.random() * (first_month_end - launch)
    else:
        t = first_month_end + rng.random() * (
            config.crawl_time - first_month_end - 86_400
        )
    # Cannot predate the user's Gab account.
    return max(t, gab_created + 60.0)


def _assign_flags(rng: np.random.Generator, username: str) -> dict[str, bool]:
    flags = {name: False for name in USER_FLAG_NAMES}
    for name, rate in FLAG_FREQUENCIES.items():
        flags[name] = bool(rng.random() < rate)
    flags["isAdmin"] = username in ("a", "shadowknight412")
    flags["isModerator"] = False
    flags["isBanned"] = False  # assigned to a fixed count afterwards
    return flags


def _assign_filters(rng: np.random.Generator) -> dict[str, bool]:
    return {
        name: bool(rng.random() < rate)
        for name, rate in FILTER_FREQUENCIES.items()
    }


def _plan_core_components(config: WorldConfig) -> list[int]:
    """Component sizes for the planted core, e.g. 42 -> [32, 2, 2, 2, 2, 2]."""
    total = config.planted_core_size
    if total <= 0:
        return []
    giant = min(config.core_giant_size, total)
    remaining = total - giant
    n_small = max(0, config.core_components - 1)
    if n_small == 0 or remaining <= 0:
        return [giant] + ([remaining] if remaining > 0 else [])
    sizes = [giant]
    base = max(2, remaining // n_small)
    for i in range(n_small):
        size = base if i < n_small - 1 else remaining - base * (n_small - 1)
        if size > 0:
            sizes.append(size)
    return sizes


def build_dissenter_state(
    config: WorldConfig,
    rng: np.random.Generator,
    gab: GabUniverse,
    urls: UrlUniverse,
    ids: ObjectIdFactory,
    textgen: CommentTextGenerator,
) -> DissenterState:
    """Generate the complete Dissenter platform state."""
    users = _build_users(config, rng, gab, ids, textgen)
    core_plan = _plant_core(config, rng, users)
    comments = _build_comments(config, rng, users, urls, ids, textgen)
    return DissenterState(
        users=users,
        comments=comments,
        urls=urls,
        planted_core_plan=core_plan,
    )


def _build_users(
    config: WorldConfig,
    rng: np.random.Generator,
    gab: GabUniverse,
    ids: ObjectIdFactory,
    textgen: CommentTextGenerator,
) -> list[DissenterUser]:
    users: list[DissenterUser] = []
    for account in gab.dissenter_accounts():
        joined = _join_time(config, rng, account.created_at)
        mentions_censorship = rng.random() < 0.25
        language = "en"
        roll = rng.random()
        cumulative = 0.0
        for lang, weight in LANGUAGE_MIX:
            cumulative += weight / sum(w for _, w in LANGUAGE_MIX)
            if roll < cumulative:
                language = lang
                break
        users.append(
            DissenterUser(
                author_id=ids.mint(joined),
                gab_id=account.gab_id,
                username=account.username,
                display_name=account.display_name,
                created_at=joined,
                bio=textgen.generate_bio(mentions_censorship),
                language=language,
                flags=_assign_flags(rng, account.username),
                view_filters=_assign_filters(rng),
                toxicity_mean=sample_user_toxicity_mean(rng),
                # Comment count the user will produce if active.  The
                # distribution is scale-free (per-user activity does not
                # depend on world scale): mean ~36 comments per active
                # user, heavy tail capped at 4,000 ("posting thousands of
                # comments in little over a year", §4.1.1), calibrated so
                # the top ~14% of active users hold ~90% of comments.
                activity_weight=float(np.ceil(min(
                    2.2 * (rng.pareto(config.comment_activity_alpha) + 0.08),
                    4000.0,
                ))),
                gab_deleted=account.is_deleted,
            )
        )
    # Non-English users are casual participants: Dissenter is an
    # anglophone platform, and capping foreign-language activity keeps the
    # comment-level language mix near the paper's 94% English / 2% German
    # even at small scales (one hyperactive foreign user would otherwise
    # dominate their language's count).
    for user in users:
        if user.language != "en" and user.activity_weight > 20:
            user.activity_weight = float(rng.integers(3, 21))

    # Mega-posters (1,000+ comments) are spammy rather than hateful — the
    # paper's hateful core sits at the ~100-1,000 comment range and its
    # most prolific users are not its most toxic (§4.5).  Keeping the very
    # top of the activity tail out of the high-toxicity cluster also keeps
    # the corpus-level toxicity marginal stable across seeds.
    for user in users:
        if user.activity_weight >= 1000 and user.toxicity_mean > 0.40:
            user.toxicity_mean = float(0.5 * rng.beta(1.3, 10.0))

    # Fixed-count bans (paper: 8 accounts at full scale).
    n_banned = config.scaled(config.paper.banned_users, minimum=1)
    candidates = [u for u in users if not u.flags["isAdmin"]]
    for user in rng.choice(np.asarray(candidates, dtype=object),
                           size=min(n_banned, len(candidates)), replace=False):
        user.flags["isBanned"] = True
        user.flags["canLogin"] = False
        user.flags["canPost"] = False
    return users


def _plant_core(
    config: WorldConfig, rng: np.random.Generator, users: list[DissenterUser]
) -> list[list[int]]:
    """Mark core members toxic & prolific; return the component plan."""
    sizes = _plan_core_components(config)
    if not sizes:
        return []
    total = sum(sizes)
    eligible = [u for u in users if not u.gab_deleted and not u.flags["isBanned"]]
    if len(eligible) < total:
        raise ValueError(
            f"cannot plant a {total}-user core in a world with "
            f"{len(eligible)} eligible users; increase scale"
        )
    chosen = list(rng.choice(np.asarray(eligible, dtype=object),
                             size=total, replace=False))
    plan: list[list[int]] = []
    cursor = 0
    for size in sizes:
        group = chosen[cursor:cursor + size]
        cursor += size
        for user in group:
            user.in_planted_core = True
            user.toxicity_mean = float(0.45 + 0.35 * rng.beta(2.0, 2.0))
            user.activity_weight = float(110 + rng.pareto(1.5) * 40)
            # Core members write English: foreign-language comments carry
            # no toxic vocabulary, which would break the median-toxicity
            # criterion for a planted member.
            user.language = "en"
        plan.append([u.gab_id for u in group])
    return plan


def _build_comments(
    config: WorldConfig,
    rng: np.random.Generator,
    users: list[DissenterUser],
    urls: UrlUniverse,
    ids: ObjectIdFactory,
    textgen: CommentTextGenerator,
) -> list[Comment]:
    # --- choose the active users; each posts its pre-drawn count ----------
    active_fraction = config.paper.active_user_fraction
    is_active = rng.random(len(users)) < active_fraction
    # Core members are always active.
    for index, user in enumerate(users):
        if user.in_planted_core:
            is_active[index] = True
    active = [u for u, flag in zip(users, is_active) if flag]
    if not active:
        active = [users[0]]

    url_probs = urls.weights / urls.weights.sum()
    url_list = urls.urls
    draws = Draws(rng)

    comments: list[Comment] = []
    for user in active:
        user.became_active = True
        count = max(1, int(user.activity_weight))
        url_picks = rng.choice(len(url_list), size=count, p=url_probs)
        for pick in url_picks.tolist():
            comments.append(_make_comment(
                config, draws, user, url_list[pick], urls, ids, textgen,
            ))

    # --- thread structure: convert a fraction into replies ----------------
    by_url: dict[str, list[int]] = {}
    for index, comment in enumerate(comments):
        by_url.setdefault(comment.commenturl_id.hex, []).append(index)
    for indices in by_url.values():
        if len(indices) < 2:
            continue
        ordered = sorted(indices, key=lambda i: comments[i].created_at)
        for position in range(1, len(ordered)):
            if draws.random() < REPLY_FRACTION:
                child = comments[ordered[position]]
                parent_pos = draws.integers(0, position)
                child.parent_comment_id = comments[ordered[parent_pos]].comment_id

    # --- the pathological mega-comment (§3.2) ------------------------------
    youtube_urls = [u for u in url_list if u.category == "youtube"]
    if youtube_urls and comments:
        target_url = draws.pick(youtube_urls)
        author = draws.pick(active)
        mega = _make_comment(config, draws, author, target_url, urls, ids, textgen)
        mega.text = "ha " * 45_000
        mega.nsfw = False
        mega.offensive = False
        comments.append(mega)

    comments.sort(key=lambda c: c.created_at)
    return comments


def _make_comment(
    config: WorldConfig,
    draws: Draws,
    user: DissenterUser,
    url: CommentUrl,
    urls: UrlUniverse,
    ids: ObjectIdFactory,
    textgen: CommentTextGenerator,
) -> Comment:
    created = url.first_seen + draws.random() * max(
        60.0, config.crawl_time - url.first_seen - 60.0
    )
    created = max(created, user.created_at + 30.0)

    roll = draws.random()
    nsfw = roll < NSFW_COMMENT_RATE
    offensive = NSFW_COMMENT_RATE <= roll < NSFW_COMMENT_RATE + OFFENSIVE_COMMENT_RATE

    rng = draws.rng
    if offensive:
        latent = sample_offensive_latent(rng)
    elif nsfw:
        latent = sample_nsfw_latent(rng)
    else:
        latent = sample_comment_latent(rng, user.toxicity_mean, url)

    language = urls.language_hints.get(url.commenturl_id.hex, user.language)
    text = textgen.generate(latent, language=language)
    return Comment(
        comment_id=ids.mint(created),
        author_id=user.author_id,
        commenturl_id=url.commenturl_id,
        created_at=created,
        text=text,
        nsfw=nsfw,
        offensive=offensive,
        language=language,
        latent=latent,
    )
