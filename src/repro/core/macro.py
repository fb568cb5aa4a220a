"""Macro characterisation of the platform (§4.1, Figs. 2-3, Table 1).

All inputs are crawled records; creation times come from the timestamp
prefix of the undocumented 12-byte IDs (§2.2), exactly as in the paper.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from repro.crawler.records import CrawledGabAccount
from repro.stats.distributions import ECDF, top_share
from repro.stats.hypothesis_tests import rank_correlation
from repro.store import CorpusStore, columns_of

__all__ = [
    "CommentConcentration",
    "GabGrowthSeries",
    "MacroHeadlines",
    "UserTableStats",
    "analyze_gab_growth",
    "comment_concentration",
    "compute_headlines",
    "user_table",
]


# ---------------------------------------------------------------------------
# Fig. 2 — Gab ID assignment over time.
# ---------------------------------------------------------------------------


@dataclass
class GabGrowthSeries:
    """(creation time, Gab ID) series plus monotonicity anomalies."""

    created_at: np.ndarray           # Unix seconds, sorted ascending
    gab_ids: np.ndarray              # IDs in creation order
    anomalous_count: int             # IDs assigned out of order
    spearman_rho: float              # rank correlation time vs ID

    @property
    def n(self) -> int:
        return int(self.created_at.size)


def _parse_iso(timestamp: str) -> float:
    return datetime.datetime.strptime(
        timestamp, "%Y-%m-%dT%H:%M:%S.000Z"
    ).replace(tzinfo=datetime.timezone.utc).timestamp()


def _parse_iso_many(stamps: list[str]) -> np.ndarray:
    """Vectorized `_parse_iso` over the canonical timestamp layout.

    The platform emits exactly ``YYYY-MM-DDTHH:MM:SS.000Z`` (24 chars,
    literal ``.000Z``), which datetime64 parses after stripping the
    suffix; both paths yield whole Unix seconds, so the float values are
    bit-identical.  Anything off-layout falls back to the scalar parser,
    preserving its error behaviour.
    """
    arr = np.asarray(stamps, dtype=np.str_)
    try:
        if arr.dtype != np.dtype("<U24") or not np.all(
            np.strings.endswith(arr, ".000Z")
        ):
            raise ValueError("non-canonical timestamp layout")
        seconds = arr.astype("<U19").astype("datetime64[s]").astype(np.int64)
    except (ValueError, TypeError):
        return np.asarray([_parse_iso(stamp) for stamp in stamps])
    return seconds.astype(float)


def analyze_gab_growth(accounts: list[CrawledGabAccount]) -> GabGrowthSeries:
    """Build the Fig. 2 series and quantify ID-counter anomalies.

    An account is "anomalous" when its ID is *lower* than the running
    maximum ID among accounts created before it — i.e. a previously
    unallocated low ID handed to a new account.
    """
    if not accounts:
        raise ValueError("no accounts to analyze")
    times = _parse_iso_many([a.created_at_iso for a in accounts])
    ids = np.asarray([a.gab_id for a in accounts])
    order = np.argsort(times)
    times, ids = times[order], ids[order]

    # Running maximum among *earlier* accounts: far-below-frontier IDs
    # are reassigned reserved IDs.
    frontier = np.concatenate(
        [[0], np.maximum.accumulate(ids)[:-1]]
    )
    anomalous = int((ids < frontier * 0.5).sum())

    rho = rank_correlation(times, ids) if ids.size > 1 else 1.0

    return GabGrowthSeries(
        created_at=times,
        gab_ids=ids,
        anomalous_count=anomalous,
        spearman_rho=rho,
    )


# ---------------------------------------------------------------------------
# Fig. 3 — comment concentration among active users.
# ---------------------------------------------------------------------------


@dataclass
class CommentConcentration:
    """Per-user comment counts and concentration statistics."""

    counts: np.ndarray               # comments per active user, descending
    top_14pct_share: float
    gini_like_top_shares: dict[float, float]   # population frac -> mass frac

    def ecdf(self) -> ECDF:
        return ECDF(self.counts)


def comment_concentration(result: CorpusStore) -> CommentConcentration:
    """Compute Fig. 3's distribution over the crawled corpus."""
    per_author = columns_of(result).comments_per_author()
    counts = np.sort(per_author[per_author > 0])[::-1].astype(float)
    if counts.size == 0:
        raise ValueError("corpus has no comments")
    shares = {
        fraction: top_share(counts, fraction)
        for fraction in (0.01, 0.05, 0.10, 0.14, 0.25, 0.50)
    }
    return CommentConcentration(
        counts=counts,
        top_14pct_share=shares[0.14],
        gini_like_top_shares=shares,
    )


# ---------------------------------------------------------------------------
# Table 1 — user flags and view filters.
# ---------------------------------------------------------------------------


@dataclass
class UserTableStats:
    """Table 1: flag and filter frequencies over active users."""

    n_active: int
    flag_counts: dict[str, int] = field(default_factory=dict)
    filter_counts: dict[str, int] = field(default_factory=dict)

    def flag_fraction(self, name: str) -> float:
        return self.flag_counts.get(name, 0) / self.n_active if self.n_active else 0.0

    def filter_fraction(self, name: str) -> float:
        return (
            self.filter_counts.get(name, 0) / self.n_active
            if self.n_active
            else 0.0
        )


def _mask_counts(masks: np.ndarray, names: list[str]) -> dict[str, int]:
    """Per-bit truthy counts, keyed in first-truthy-user order.

    A name is keyed the first time a selected user carries the flag
    truthily, iterating each user's (fixed-order) items — so ordering by
    (first truthy row, bit ordinal) reproduces that order exactly.
    """
    entries = []
    for bit, name in enumerate(names):
        hits = (masks >> np.uint64(bit)) & np.uint64(1)
        count = int(hits.sum())
        if count:
            entries.append((int(np.argmax(hits)), bit, count))
    entries.sort()
    return {names[bit]: count for _, bit, count in entries}


def user_table(result: CorpusStore) -> UserTableStats:
    """Tabulate hidden-metadata flags/filters over active users.

    Only users whose commentAuthor blob was mined (i.e. that have posted)
    contribute — matching the paper's n = active users.
    """
    view = columns_of(result)
    users = view.users
    selected = view.active_author_mask()[users.author] & (
        users.has_perms != 0
    )
    return UserTableStats(
        n_active=int(selected.sum()),
        flag_counts=_mask_counts(
            users.perm_mask[selected], view.tables.flags.values
        ),
        filter_counts=_mask_counts(
            users.filter_mask[selected], view.tables.filters.values
        ),
    )


# ---------------------------------------------------------------------------
# §4.1 headline numbers.
# ---------------------------------------------------------------------------


@dataclass
class MacroHeadlines:
    """The §4 headline statistics."""

    total_users: int
    active_users: int
    total_comments: int
    total_replies: int
    distinct_urls: int
    first_month_join_fraction: float
    orphaned_commenters: int          # author-ids with comments but no account
    censorship_bio_fraction: float
    nsfw_comments: int
    offensive_comments: int

    @property
    def active_fraction(self) -> float:
        return self.active_users / self.total_users if self.total_users else 0.0


def compute_headlines(
    result: CorpusStore,
    launch_epoch: float,
    first_month_days: int = 35,
) -> MacroHeadlines:
    """Compute the §4.1 headline statistics from the crawl."""
    users = list(result.users.values())
    active = result.active_users()
    known_authors = {u.author_id for u in users}
    comment_authors = {c.author_id for c in result.comments.values()}
    orphaned = len(comment_authors - known_authors)

    cutoff = launch_epoch + first_month_days * 86_400
    joined_early = sum(1 for u in users if u.created_at <= cutoff)
    censorship = sum(1 for u in users if "censorship" in u.bio.lower())

    replies = sum(1 for c in result.comments.values() if c.is_reply)
    nsfw = sum(
        1 for c in result.comments.values() if c.shadow_label == "nsfw"
    )
    offensive = sum(
        1 for c in result.comments.values() if c.shadow_label == "offensive"
    )

    return MacroHeadlines(
        total_users=len(users),
        active_users=len(active),
        total_comments=len(result.comments),
        total_replies=replies,
        distinct_urls=len(result.urls),
        first_month_join_fraction=joined_early / len(users) if users else 0.0,
        orphaned_commenters=orphaned,
        censorship_bio_fraction=censorship / len(users) if users else 0.0,
        nsfw_comments=nsfw,
        offensive_comments=offensive,
    )
