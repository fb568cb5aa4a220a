"""The follower graph (§3.4, §4.5).

Dissenter has no visible social network of its own; the paper uses Gab
follows as a proxy.  This generator builds a directed follow graph over
Gab accounts with the properties §4.5 reports:

* power-law in- and out-degree distributions,
* roughly a third of active Dissenter users completely isolated (15,702 of
  45,524 have no followers and follow no one),
* follow lists that include non-Dissenter Gab accounts (the analysis must
  filter these out to induce the Dissenter-only graph), and
* an optionally planted "hateful core": a set of users wired with *mutual*
  follows into one giant component plus pair components, matching the
  paper's 42-user / 6-component / 32-giant structure when enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.platform.draws import Draws
from repro.platform.gab import GabUniverse

__all__ = ["SocialGraph", "build_social_graph"]

ISOLATED_FRACTION = 15_702 / 45_524   # §4.5.1

# §3.1: new Gab accounts auto-follow @a — but only from some point in the
# platform's history onward ("our results suggested a period of time
# before the @a handle was automatically followed by new users"), and
# some users later unfollow.  Expressed as a fraction of the Gab->crawl
# time span before which no auto-follow happened, and a keep rate after.
AUTO_FOLLOW_A_START_FRACTION = 0.22
AUTO_FOLLOW_A_KEEP_RATE = 0.82


@dataclass
class SocialGraph:
    """Directed follow graph keyed by Gab ID."""

    following: dict[int, set[int]] = field(default_factory=dict)
    followers: dict[int, set[int]] = field(default_factory=dict)

    def add_edge(self, source: int, target: int) -> None:
        """``source`` follows ``target``."""
        if source == target:
            return
        self.following.setdefault(source, set()).add(target)
        self.followers.setdefault(target, set()).add(source)

    def add_mutual(self, a: int, b: int) -> None:
        self.add_edge(a, b)
        self.add_edge(b, a)

    def following_of(self, gab_id: int) -> set[int]:
        return self.following.get(gab_id, set())

    def followers_of(self, gab_id: int) -> set[int]:
        return self.followers.get(gab_id, set())

    def out_degree(self, gab_id: int) -> int:
        return len(self.following.get(gab_id, ()))

    def in_degree(self, gab_id: int) -> int:
        return len(self.followers.get(gab_id, ()))

    def is_mutual(self, a: int, b: int) -> bool:
        return b in self.following.get(a, ()) and a in self.following.get(b, ())


def _spanning_connected_mutual(
    graph: SocialGraph, members: list[int], rng: np.random.Generator
) -> None:
    """Wire members into one connected component of mutual edges."""
    shuffled = list(members)
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        attach_to = shuffled[int(rng.integers(0, i))]
        graph.add_mutual(shuffled[i], attach_to)
    # Densify: extra chords make the component clique-ish, as a clustered
    # community would be.
    extra = len(members)
    for _ in range(extra):
        a, b = rng.choice(len(members), size=2, replace=False)
        graph.add_mutual(members[int(a)], members[int(b)])


def build_social_graph(
    gab: GabUniverse,
    rng: np.random.Generator,
    planted_core: list[list[int]] | None = None,
) -> SocialGraph:
    """Build the follow graph.

    Args:
        gab: the account universe.
        rng: world RNG stream.
        planted_core: optional list of Gab-ID groups; each group is wired
            into one mutual-follow component (the hateful core plan).

    Returns:
        The directed :class:`SocialGraph`.
    """
    graph = SocialGraph()
    dissenter_ids = [a.gab_id for a in gab.accounts if a.has_dissenter]
    non_dissenter_ids = [a.gab_id for a in gab.accounts if not a.has_dissenter]
    core_members = {m for group in (planted_core or []) for m in group}

    # Partition: isolated users never appear in the graph at all.
    participants: list[int] = []
    for gab_id in dissenter_ids:
        if gab_id in core_members:
            participants.append(gab_id)
        elif rng.random() >= ISOLATED_FRACTION:
            participants.append(gab_id)

    # Auto-follow of @a across the Gab population — what the paper's
    # abandoned seed-discovery methodology crawled.  Isolated Dissenter
    # users are exactly the ones this misses: they predate the auto-follow
    # era or manually unfollowed @a (both behaviours the paper observed),
    # which is why only exhaustive ID enumeration finds them.
    torba_account = gab.by_username.get("a")
    if torba_account is not None:
        participant_set = set(participants)
        creation_times = [a.created_at for a in gab.accounts]
        span = max(creation_times) - min(creation_times)
        start = min(creation_times) + AUTO_FOLLOW_A_START_FRACTION * span
        for account in gab.accounts:
            if account.gab_id == torba_account.gab_id or account.is_deleted:
                continue
            if account.has_dissenter and account.gab_id not in participant_set:
                continue   # isolated users stay isolated
            if (
                account.created_at >= start
                and rng.random() < AUTO_FOLLOW_A_KEEP_RATE
            ):
                graph.add_edge(account.gab_id, torba_account.gab_id)

    if len(participants) >= 3:
        participants_arr = np.asarray(participants)
        # Preferential attachment: attractiveness grows with in-degree.
        attractiveness = np.ones(len(participants))
        # "@a" is auto-followed by many users; give it a head start when
        # present.
        torba = next((i for i, g in enumerate(participants) if g == 2), None)
        if torba is not None:
            attractiveness[torba] = len(participants) * 0.5

        # Heavy-tailed out-degree: most follow a handful, a few follow
        # thousands (§4.5.1's 15,790-following outlier at full scale).
        raw = rng.pareto(1.1, size=len(participants)) * 3.0 + 1.0
        out_degrees = np.minimum(raw.astype(int), len(participants) - 1)

        for index, gab_id in enumerate(participants):
            k = int(out_degrees[index])
            if k <= 0:
                continue
            probs = attractiveness / attractiveness.sum()
            targets = rng.choice(
                len(participants), size=min(k, len(participants) - 1),
                replace=False, p=probs,
            )
            for target in targets:
                if int(target) == index:
                    continue
                graph.add_edge(gab_id, int(participants_arr[target]))
                attractiveness[int(target)] += 1.0

    # Sprinkle in non-Dissenter Gab accounts so the induced-subgraph
    # filtering step of the analysis is real work.
    if non_dissenter_ids:
        draws = Draws(rng)
        for gab_id in participants:
            n_outside = draws.integers(0, 4)
            for target in draws.pick_many(non_dissenter_ids, n_outside):
                graph.add_edge(gab_id, target)
            if draws.random() < 0.3:
                graph.add_edge(draws.pick(non_dissenter_ids), gab_id)

    # Plant the hateful-core component structure.
    for group in planted_core or []:
        if len(group) == 1:
            continue
        if len(group) == 2:
            graph.add_mutual(group[0], group[1])
        else:
            _spanning_connected_mutual(graph, list(group), rng)

    return graph
