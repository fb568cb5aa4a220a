"""The Gab account universe (§3.1, Figure 2).

Gab user IDs are a counter starting at 1 ("@e", the former CTO) and are
generally assigned monotonically with account-creation time.  The paper's
Figure 2 shows two anomalous periods in which previously unallocated
lower-valued IDs were handed to new accounts.  This generator reproduces
all of it:

* a growth curve with the bursts visible in Fig. 2 (launch, the late-2018
  influx after the Twitter purges, the 2019 Dissenter launch),
* two reserved ID blocks that are later assigned out of order,
* ~8% of accounts also holding Dissenter accounts,
* "silent and friendless" accounts that no Gab-side crawl of posts or
  followers would ever discover (the motivation for exhaustive ID
  enumeration), and
* a small population of deleted accounts whose Dissenter users live on as
  orphans (§4.1.1 found ~1,300 of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.platform.config import WorldConfig
from repro.platform.draws import Draws
from repro.platform.entities import GabAccount

__all__ = ["GabUniverse", "build_gab_universe"]

_ADJECTIVES = (
    "free", "true", "real", "brave", "liberty", "eagle", "patriot", "iron",
    "silent", "golden", "red", "blue", "gray", "dark", "bright", "wild",
    "lone", "proud", "swift", "solid", "prime", "alpha", "delta", "omega",
)
_NOUNS = (
    "wolf", "hawk", "lion", "bear", "viper", "falcon", "raven", "tiger",
    "rider", "walker", "hunter", "watcher", "smith", "miller", "baker",
    "mason", "carter", "parker", "ranger", "pilot", "sailor", "knight",
    "voice", "pen", "mind", "spirit", "truth", "witness",
)

# Founder/staff accounts the paper names.  "@e" holds Gab ID 1; "@a"
# (Andrew Torba) is an early account that new users auto-follow;
# "@shadowknight412" is the Gab CTO's account (the second isAdmin flag).
SPECIAL_USERNAMES: tuple[tuple[int, str, str], ...] = (
    (1, "e", "Ekrem B."),
    (2, "a", "Andrew Torba"),
    (3, "shadowknight412", "Rob Colbert"),
)

# Growth phases: (fraction of accounts, start fraction, end fraction of the
# Gab->crawl time span).  Steeper segments = Fig. 2's bursts.
_GROWTH_PHASES: tuple[tuple[float, float, float], ...] = (
    (0.18, 0.00, 0.10),   # launch surge
    (0.12, 0.10, 0.45),   # slow 2017-2018
    (0.25, 0.45, 0.58),   # late-2018 influx
    (0.30, 0.58, 0.72),   # 2019 Dissenter-era burst
    (0.15, 0.72, 1.00),   # tail through Apr 2020
)


@dataclass
class GabUniverse:
    """All Gab accounts plus lookup structure."""

    accounts: list[GabAccount]
    by_id: dict[int, GabAccount] = field(default_factory=dict)
    by_username: dict[str, GabAccount] = field(default_factory=dict)
    max_id: int = 0
    anomalous_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.by_id:
            self.by_id = {a.gab_id: a for a in self.accounts}
        if not self.by_username:
            self.by_username = {a.username: a for a in self.accounts}
        if not self.max_id:
            self.max_id = max(self.by_id) if self.by_id else 0

    def dissenter_accounts(self) -> list[GabAccount]:
        return [a for a in self.accounts if a.has_dissenter]


def _make_username(draws: Draws, used: set[str]) -> str:
    while True:
        name = draws.pick(_ADJECTIVES) + draws.pick(_NOUNS)
        if draws.random() < 0.7:
            name += str(draws.integers(1, 10_000))
        if name not in used:
            used.add(name)
            return name


def _creation_times(
    config: WorldConfig, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw sorted creation timestamps following the phased growth curve."""
    span = config.crawl_time - config.epoch_gab
    fractions, starts, ends = zip(*_GROWTH_PHASES)
    weights = np.asarray(fractions) / np.sum(fractions)
    phases = rng.choice(len(_GROWTH_PHASES), size=count, p=weights)
    u = rng.random(count)
    lo = np.asarray(starts)[phases]
    hi = np.asarray(ends)[phases]
    times = config.epoch_gab + (lo + u * (hi - lo)) * span
    return np.sort(times)


def build_gab_universe(
    config: WorldConfig, rng: np.random.Generator
) -> GabUniverse:
    """Generate the Gab account population."""
    count = config.n_gab_accounts
    times = _creation_times(config, rng, count)
    draws = Draws(rng)
    paper = config.paper

    # Two reserved blocks whose IDs are assigned late (Fig. 2 anomalies).
    block_size = max(2, count // 80)
    block1_start = max(4, count // 6)
    block2_start = max(block1_start + block_size + 1, count // 2)
    reserved = list(range(block1_start, block1_start + block_size)) + list(
        range(block2_start, block2_start + block_size)
    )
    reserved_set = set(reserved)

    # Dissenter adoption skews toward accounts that predate the launch
    # (the early-2019 spike drew existing Gab users): pre-launch accounts
    # adopt at 1.3x the base rate, later ones at 0.45x.  The base rate is
    # normalised so the overall share stays at the paper's ~7.8%.
    dissenter_fraction = paper.dissenter_users / paper.gab_accounts / 1.10
    # The paper's ~1,300 orphaned users are *commenters* whose Gab account
    # vanished; with ~47% of users active, the per-user deletion rate that
    # yields 1,300 active orphans at full scale is ~2.8%.
    deleted_dissenter_fraction = paper.orphaned_dissenter_users / (
        paper.dissenter_users * paper.active_user_fraction
    )

    used_names: set[str] = {name for _, name, _ in SPECIAL_USERNAMES}
    accounts: list[GabAccount] = []

    next_id = 1
    sequential_ids: list[int] = []
    while len(sequential_ids) < count:
        if next_id not in reserved_set:
            sequential_ids.append(next_id)
        next_id += 1

    # The last `block` accounts (latest creation times) receive the
    # reserved low IDs instead of fresh high ones.
    n_anomalous = len(reserved)
    assigned_ids = sequential_ids[: count - n_anomalous] + reserved

    for index, (gab_id, created_at) in enumerate(zip(assigned_ids, times)):
        special = next(
            ((sid, name, display) for sid, name, display in SPECIAL_USERNAMES
             if sid == gab_id),
            None,
        )
        if special is not None:
            _, username, display_name = special
        else:
            username = _make_username(draws, used_names)
            display_name = username.capitalize()

        adoption_multiplier = (
            1.3 if created_at < config.epoch_dissenter else 0.45
        )
        has_dissenter = (
            created_at < config.crawl_time
            and draws.random() < dissenter_fraction * adoption_multiplier
        )
        # Founder accounts are Dissenter users (they hold the admin flags).
        if special is not None and gab_id in (2, 3):
            has_dissenter = True

        is_deleted = False
        if has_dissenter and special is None:
            is_deleted = draws.random() < deleted_dissenter_fraction
        elif not has_dissenter and special is None:
            is_deleted = draws.random() < 0.005

        # Roughly a third of accounts ever post on Gab proper — the gap
        # between prior work's 336k posted-user census and the 1.3M the
        # exhaustive ID enumeration uncovers (§3.1).
        has_posted = draws.random() < 0.35 and not is_deleted
        accounts.append(
            GabAccount(
                gab_id=gab_id,
                username=username,
                display_name=display_name,
                created_at=float(created_at),
                bio="",
                is_deleted=is_deleted,
                has_dissenter=has_dissenter,
                has_posted=has_posted,
            )
        )

    return GabUniverse(accounts=accounts, anomalous_ids=reserved)
