"""networkx reference implementations of the §4.5 social analyses.

:func:`to_networkx` turns a :class:`~repro.graph.csr.CSRGraph` back into
the ``networkx.DiGraph`` the analyses used to run on; the analyses below
are the historical networkx paths the CSR reductions replaced, returning
the same result types.  The baseline reductions at the bottom are the
per-call networkx counterparts the graph-engine bench times.
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx
import numpy as np

from repro.core.socialnet import (
    HatefulCore,
    SocialNetworkAnalysis,
    _toxicity_buckets,
)
from repro.graph.csr import CSRGraph
from repro.stats.powerlaw import PowerLawFit, fit_discrete_powerlaw

__all__ = [
    "PIPELINE_ORACLES",
    "analyze_social_network",
    "degrees_and_isolated",
    "extract_hateful_core",
    "mutual_pair_count",
    "to_networkx",
    "weak_component_sizes",
]


def to_networkx(graph: CSRGraph) -> nx.DiGraph:
    """The equivalent ``networkx.DiGraph``.

    Nodes are inserted in canonical sorted order, edges in canonical
    row order, so every insertion-order-dependent networkx behavior
    matches a graph built the historical way.
    """
    out = nx.DiGraph()
    out.add_nodes_from(graph.nodes)
    out.add_edges_from(graph.edges)
    return out


def _top_k(degrees: Mapping[int, int], top_k: int) -> list[tuple[int, int]]:
    """Top-``top_k`` (gab_id, degree) sorted by (-degree, gab_id)."""
    return sorted(degrees.items(), key=lambda x: (-x[1], x[0]))[:top_k]


def analyze_social_network(
    graph: nx.DiGraph,
    user_toxicity: Mapping[int, float] | None = None,
    top_k: int = 10,
) -> SocialNetworkAnalysis:
    """Fig. 9 from networkx degree views."""
    in_deg = dict(graph.in_degree())
    out_deg = dict(graph.out_degree())
    nodes = list(graph.nodes)
    in_arr = np.asarray([in_deg[n] for n in nodes], dtype=int)
    out_arr = np.asarray([out_deg[n] for n in nodes], dtype=int)

    def fit_or_none(values: np.ndarray) -> PowerLawFit | None:
        try:
            return fit_discrete_powerlaw(values.tolist())
        except ValueError:
            return None

    analysis = SocialNetworkAnalysis(
        n_users=len(nodes),
        isolated_users=int(((in_arr == 0) & (out_arr == 0)).sum()),
        in_degrees=in_arr,
        out_degrees=out_arr,
        top_in=_top_k(in_deg, top_k),
        top_out=_top_k(out_deg, top_k),
        in_degree_fit=fit_or_none(in_arr),
        out_degree_fit=fit_or_none(out_arr),
    )
    if user_toxicity is not None:
        in_by_id = dict(zip(nodes, in_arr.tolist()))
        out_by_id = dict(zip(nodes, out_arr.tolist()))
        analysis.toxicity_by_in_degree = _toxicity_buckets(
            in_by_id, user_toxicity
        )
        analysis.toxicity_by_out_degree = _toxicity_buckets(
            out_by_id, user_toxicity
        )
    return analysis


def extract_hateful_core(
    graph: nx.DiGraph,
    comment_counts: Mapping[int, int],
    median_toxicity: Mapping[int, float],
    min_comments: int = 100,
    min_toxicity: float = 0.3,
) -> HatefulCore:
    """The §4.5.1 core from a per-edge mutual-follow loop."""
    qualifying_ids = {
        node
        for node in graph.nodes
        if comment_counts.get(node, 0) >= min_comments
        and median_toxicity.get(node, 0.0) >= min_toxicity
    }
    mutual = nx.Graph()
    for a, b in graph.edges:
        if a == b:
            continue
        if a in qualifying_ids and b in qualifying_ids and graph.has_edge(b, a):
            mutual.add_edge(a, b)
    components = sorted(
        (len(c) for c in nx.connected_components(mutual)), reverse=True
    )
    return HatefulCore(
        members=tuple(sorted(mutual.nodes)),
        component_sizes=components,
        subgraph=mutual,
        qualifying_users=len(qualifying_ids),
    )


def _on_csr(oracle):
    """Adapt a networkx oracle to take the CSR graph production passes."""
    def run(graph: CSRGraph, *args, **kwargs):
        return oracle(to_networkx(graph), *args, **kwargs)
    return run


#: Name ``stage_analyze`` looks up in :mod:`repro.core.pipeline` -> the
#: networkx reference a parity run patches over it (fed through
#: :func:`to_networkx`).
PIPELINE_ORACLES = {
    "analyze_social_network": _on_csr(analyze_social_network),
    "extract_hateful_core": _on_csr(extract_hateful_core),
}


# ---------------------------------------------------------------------------
# Per-reduction baselines (what the CSR engine's hot paths replaced).
# ---------------------------------------------------------------------------


def degrees_and_isolated(
    graph: nx.DiGraph,
) -> tuple[dict[int, int], dict[int, int], int]:
    """(in-degree map, out-degree map, isolated node count)."""
    in_deg = dict(graph.in_degree())
    out_deg = dict(graph.out_degree())
    isolated = sum(1 for n in graph if in_deg[n] == 0 and out_deg[n] == 0)
    return in_deg, out_deg, isolated


def mutual_pair_count(graph: nx.DiGraph) -> int:
    """Unordered node pairs joined by edges in both directions."""
    return sum(1 for u, v in graph.edges if u < v and graph.has_edge(v, u))


def weak_component_sizes(graph: nx.DiGraph) -> list[int]:
    """Weakly connected component sizes, descending."""
    return sorted(
        (len(c) for c in nx.weakly_connected_components(graph)),
        reverse=True,
    )
