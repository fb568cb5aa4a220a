"""World configuration: every calibration constant in one place.

All population sizes are the paper's, multiplied by ``scale``.  The default
scale of 0.01 builds a world of ~13k Gab accounts / ~1k Dissenter users /
~17k comments in about 4 s on a 2-core x86-64 VM; `scale=1.0` reproduces
the full census sizes (1.3M Gab accounts, 101k Dissenter users, 1.68M
comments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["WorldConfig", "PAPER"]


@dataclass(frozen=True)
class PaperConstants:
    """Headline numbers reported by the paper (unscaled)."""

    gab_accounts: int = 1_300_000
    dissenter_users: int = 101_000
    comments: int = 1_680_000
    distinct_urls: int = 588_000
    active_user_fraction: float = 0.47        # §4.1.1: 47k of 101k commented
    march_2019_join_fraction: float = 0.77    # 77% joined by end of Mar 2019
    orphaned_dissenter_users: int = 1_300     # Gab account deleted
    nsfw_comments: int = 10_000               # ~0.6% of comments
    offensive_comments: int = 8_000           # ~0.5% of comments
    youtube_urls: int = 128_000
    nsfw_filter_fraction: float = 0.1504      # Table 1
    offensive_filter_fraction: float = 0.0733
    pro_user_fraction: float = 0.0267
    banned_users: int = 8
    admin_users: int = 2
    english_fraction: float = 0.94
    german_fraction: float = 0.02
    reddit_username_match_fraction: float = 0.56
    hateful_core_size: int = 42
    hateful_core_components: int = 6
    hateful_core_giant: int = 32
    nytimes_comments: int = 4_995_119
    dailymail_comments: int = 14_287_096
    reddit_comments: int = 13_051_561
    reddit_matched_commenters: int = 35_718


PAPER = PaperConstants()


@dataclass(frozen=True)
class WorldConfig:
    """Parameters controlling world generation.

    Attributes:
        scale: multiplier applied to the paper's population sizes.
        seed: master RNG seed; every sub-generator derives its stream
            from it, so equal configs build identical worlds.
        epoch_gab: Unix time Gab opened (Aug 2016).
        epoch_dissenter: Unix time Dissenter launched (late Feb 2019).
        crawl_time: Unix time the simulated crawl happens (end Apr 2020) —
            nothing in the world is created after this.
        planted_core_size: when > 0, plant a "hateful core" of exactly
            this many prolific, highly toxic, mutually following users
            (the §4.5 analysis finds 42 at full scale; 0 disables
            planting for small worlds whose marginals it would distort).
        core_components: number of mutual-follow components the planted
            core forms (paper: 6).
        core_giant_size: size of the core's giant component (paper: 32).
        baseline_sample_cap: maximum number of baseline comments to
            materialise as text per dataset; Table 3 counts are nominal,
            Perspective scoring uses this sample.
        comment_activity_alpha: Pareto shape of per-user comment counts
            (smaller = heavier tail; calibrated so ~14% of active users
            produce ~90% of comments, Fig. 3).
        follow_gamma: preferential-attachment strength of the follower
            graph (degree distributions must fit a power law, Fig. 9a).
        mean_comment_tokens: mean comment length in tokens.
        fault_timeout_rate / fault_error_rate: transport fault injection
            for crawler-resilience realism.
    """

    scale: float = 0.01
    seed: int = 2020
    planted_core_size: int = 0
    core_components: int = 6
    core_giant_size: int = 32
    baseline_sample_cap: int = 4000
    epoch_gab: float = 1_470_000_000.0        # 2016-07-31
    epoch_dissenter: float = 1_551_000_000.0  # 2019-02-24
    crawl_time: float = 1_588_200_000.0       # 2020-04-30
    comment_activity_alpha: float = 0.8
    follow_gamma: float = 1.0
    mean_comment_tokens: float = 16.0
    fault_timeout_rate: float = 0.01
    fault_error_rate: float = 0.01
    paper: PaperConstants = field(default_factory=PaperConstants)

    def __post_init__(self) -> None:
        # Comparisons are written so NaN fails them: a NaN or infinite
        # scale would otherwise surface deep inside ``scaled()``.
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(
                f"scale must be a positive finite number, got {self.scale!r}"
            )
        if not self.epoch_gab < self.epoch_dissenter < self.crawl_time:
            raise ValueError("epochs must be ordered gab < dissenter < crawl")
        if not self.baseline_sample_cap >= 1:
            raise ValueError(
                "baseline_sample_cap must be at least 1, got "
                f"{self.baseline_sample_cap!r}"
            )
        if not (self.mean_comment_tokens > 0
                and math.isfinite(self.mean_comment_tokens)):
            raise ValueError(
                "mean_comment_tokens must be a positive finite number, got "
                f"{self.mean_comment_tokens!r}"
            )
        for name in ("fault_timeout_rate", "fault_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate!r}")

    def scaled(self, full_count: int, minimum: int = 1) -> int:
        """A paper population size at this world's scale."""
        return max(minimum, int(round(full_count * self.scale)))

    @property
    def n_gab_accounts(self) -> int:
        return self.scaled(self.paper.gab_accounts, minimum=50)

    @property
    def n_comments(self) -> int:
        return self.scaled(self.paper.comments, minimum=100)

    @property
    def n_urls(self) -> int:
        return self.scaled(self.paper.distinct_urls, minimum=50)
