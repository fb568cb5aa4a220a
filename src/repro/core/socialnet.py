"""Social network analysis (§4.5, Figure 9) and the hateful core.

Operates on the induced Dissenter follow graph — a
:class:`~repro.graph.csr.CSRGraph` built by :func:`repro.crawler.
social_crawl.induce_dissenter_graph` — plus per-user activity and
toxicity measured from the crawl.

Every analysis here runs on the CSR engine's vectorized reductions
(degrees, isolated fraction, deterministic top-K, sorted-pair
mutual-edge intersection, iterative connected components).  The
historical networkx implementations they replaced live in
``tests/oracles/``; the parity tests there require byte-identical
results, up to the full report payload.

The hateful core follows the paper's §4.5.1 criterion exactly: the
subgraph induced on pairs (a, b) such that a and b are mutual followers,
each has posted >= 100 comments or replies, and each has median comment
toxicity >= 0.3.  The paper finds 42 users in 6 connected components with
a 32-user giant component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.scoring import ScoreStore
from repro.graph.csr import CSRGraph
from repro.stats.powerlaw import PowerLawFit, fit_discrete_powerlaw
from repro.store import CorpusStore

__all__ = [
    "HatefulCore",
    "SocialNetworkAnalysis",
    "analyze_social_network",
    "extract_hateful_core",
    "per_user_activity_toxicity",
]


def per_user_activity_toxicity(
    result: CorpusStore,
    gab_ids: Mapping[str, int],
    store: ScoreStore | None = None,
    max_comments_per_user: int = 200,
) -> tuple[dict[int, int], dict[int, float]]:
    """Per-user comment counts and median toxicity (Figs. 9b/9c, §4.5.1).

    Args:
        result: crawl corpus.
        gab_ids: username -> Gab ID (from the enumeration crawl).
        store: shared score store (ideally pre-populated by the
            pipeline's scoring pass).
        max_comments_per_user: per-user cap on the comments entering the
            median (deterministic prefix) to bound cost at large scales.

    Returns:
        ``(comment_counts, median_toxicity)`` keyed by Gab ID; users with
        no comments are absent from ``median_toxicity``.
    """
    store = store or ScoreStore()
    by_author = result.comments_by_author()
    author_by_username = {
        u.username: u.author_id for u in result.users.values()
    }
    comment_counts: dict[int, int] = {}
    median_toxicity: dict[int, float] = {}
    for username, gab_id in gab_ids.items():
        author_id = author_by_username.get(username)
        if author_id is None:
            continue
        comments = by_author.get(author_id, [])
        comment_counts[gab_id] = len(comments)
        if comments:
            scores = store.attribute_values(
                [c.text for c in comments[:max_comments_per_user]],
                "SEVERE_TOXICITY",
            )
            median_toxicity[gab_id] = float(np.median(scores))
    return comment_counts, median_toxicity


@dataclass
class SocialNetworkAnalysis:
    """Figure 9's data: degrees and their relationship with toxicity."""

    n_users: int
    isolated_users: int
    in_degrees: np.ndarray
    out_degrees: np.ndarray
    top_in: list[tuple[int, int]] = field(default_factory=list)    # (gab_id, deg)
    top_out: list[tuple[int, int]] = field(default_factory=list)
    in_degree_fit: PowerLawFit | None = None
    out_degree_fit: PowerLawFit | None = None
    # Toxicity grouped by log-degree bucket: bucket -> (mean, median).
    toxicity_by_in_degree: dict[int, tuple[float, float]] = field(
        default_factory=dict
    )
    toxicity_by_out_degree: dict[int, tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def isolated_fraction(self) -> float:
        return self.isolated_users / self.n_users if self.n_users else 0.0


def _degree_bucket(degree: int) -> int:
    """Log2 bucket index (0 for degree 0)."""
    if degree <= 0:
        return 0
    return int(np.floor(np.log2(degree))) + 1


def _toxicity_buckets(
    degrees: Mapping[int, int], toxicity: Mapping[int, float]
) -> dict[int, tuple[float, float]]:
    grouped: dict[int, list[float]] = {}
    for gab_id, degree in degrees.items():
        value = toxicity.get(gab_id)
        if value is None:
            continue
        grouped.setdefault(_degree_bucket(degree), []).append(value)
    return {
        bucket: (float(np.mean(vals)), float(np.median(vals)))
        for bucket, vals in grouped.items()
    }


def analyze_social_network(
    graph: CSRGraph,
    user_toxicity: Mapping[int, float] | None = None,
    top_k: int = 10,
) -> SocialNetworkAnalysis:
    """Compute Fig. 9's degree and toxicity relationships.

    Args:
        graph: induced Dissenter follow graph (nodes = Gab IDs).
        user_toxicity: per-user median comment toxicity (for Figs. 9b/9c).
        top_k: how many top-degree users to report.
    """
    nodes = graph.nodes
    in_arr = graph.in_degrees().astype(int, copy=False)
    out_arr = graph.out_degrees().astype(int, copy=False)

    def fit_or_none(values: np.ndarray) -> PowerLawFit | None:
        try:
            return fit_discrete_powerlaw(values.tolist())
        except ValueError:
            return None

    analysis = SocialNetworkAnalysis(
        n_users=len(nodes),
        isolated_users=graph.isolated_count(),
        in_degrees=in_arr,
        out_degrees=out_arr,
        top_in=graph.top_k_by_degree(in_arr, top_k),
        top_out=graph.top_k_by_degree(out_arr, top_k),
        in_degree_fit=fit_or_none(in_arr),
        out_degree_fit=fit_or_none(out_arr),
    )
    if user_toxicity is not None:
        # Bucket grouping walks the degree maps in canonical node order,
        # so the float reductions see a fixed operand order.
        in_by_id = dict(zip(nodes, in_arr.tolist()))
        out_by_id = dict(zip(nodes, out_arr.tolist()))
        analysis.toxicity_by_in_degree = _toxicity_buckets(
            in_by_id, user_toxicity
        )
        analysis.toxicity_by_out_degree = _toxicity_buckets(
            out_by_id, user_toxicity
        )
    return analysis


@dataclass
class HatefulCore:
    """§4.5.1's hateful core.

    ``members`` is a sorted tuple — not a set — so anything that
    serializes the core (the report payload, ``/api/core``) can never
    inherit hash order; ``in core`` still answers membership through
    the frozen view.
    """

    members: tuple[int, ...]                 # sorted Gab IDs
    component_sizes: list[int]               # descending
    subgraph: CSRGraph                       # mutual-edge graph
    qualifying_users: int                    # met activity+toxicity criteria

    def __contains__(self, gab_id: int) -> bool:
        return gab_id in self.member_set

    @property
    def member_set(self) -> frozenset[int]:
        """Membership view (kept off the serialization paths)."""
        return frozenset(self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)

    @property
    def giant_size(self) -> int:
        return self.component_sizes[0] if self.component_sizes else 0


def _qualifying_mask(
    graph: CSRGraph,
    comment_counts: Mapping[int, int],
    median_toxicity: Mapping[int, float],
    min_comments: int,
    min_toxicity: float,
) -> np.ndarray:
    mask = np.zeros(graph.n_nodes, dtype=bool)
    for index, gab_id in enumerate(graph.node_ids.tolist()):
        mask[index] = (
            comment_counts.get(gab_id, 0) >= min_comments
            and median_toxicity.get(gab_id, 0.0) >= min_toxicity
        )
    return mask


def extract_hateful_core(
    graph: CSRGraph,
    comment_counts: Mapping[int, int],
    median_toxicity: Mapping[int, float],
    min_comments: int = 100,
    min_toxicity: float = 0.3,
) -> HatefulCore:
    """Extract the hateful core per the paper's three-part criterion.

    Users qualify with >= ``min_comments`` comments and median toxicity
    >= ``min_toxicity``; the core is the set of qualifying users joined
    by *mutual* follow edges to another qualifying user.

    The mutual edges come from one sorted-key intersection over the CSR
    rows and the components from the engine's iterative union-find.
    """
    qualifying = _qualifying_mask(
        graph, comment_counts, median_toxicity, min_comments, min_toxicity
    )
    src, dst = graph.mutual_pairs()
    keep = qualifying[src] & qualifying[dst] & (src != dst)
    src, dst = src[keep], dst[keep]
    # The mutual subgraph keeps both directions (it is undirected in
    # the paper; symmetric CSR rows model that exactly).
    mutual = graph.subgraph_from_index_edges(
        np.concatenate([src, dst]), np.concatenate([dst, src])
    )
    return HatefulCore(
        members=tuple(mutual.nodes),
        component_sizes=mutual.component_sizes(),
        subgraph=mutual,
        qualifying_users=int(qualifying.sum()),
    )
