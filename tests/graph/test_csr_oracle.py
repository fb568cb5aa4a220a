"""The CSR engine against its networkx oracle.

Every vectorized reduction in :mod:`repro.graph.csr` replaced a
networkx call on a hot path; the contract is *bit identity*, not
approximation.  These property tests build random directed graphs with
gappy Gab-ID universes, run both engines, and compare exact values —
including insertion orders and tie-breaks.  The networkx references
live in :mod:`tests.oracles.graph`; the full pipeline report payload is
compared in ``tests/core/test_oracle_report.py``.
"""

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from repro.core.socialnet import (
    analyze_social_network,
    extract_hateful_core,
)
from repro.graph.csr import CSRGraph, csr_from_edge_list

from tests.oracles import graph as oracles
from tests.oracles.graph import to_networkx

SEEDS = range(8)


def random_world(seed, n=70, p=0.05):
    """A random digraph over a gappy, shuffled Gab-ID universe."""
    rng = np.random.default_rng(seed)
    node_ids = rng.choice(500_000, size=n, replace=False).tolist()
    edges = [
        (u, v)
        for u in node_ids
        for v in node_ids
        if u != v and rng.random() < p
    ]
    return node_ids, edges


def both_engines(node_ids, edges):
    csr = csr_from_edge_list(node_ids, edges)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(sorted(node_ids))
    oracle.add_edges_from(sorted(set(edges)))
    return csr, oracle


class TestStructure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_nodes_edges_and_roundtrip(self, seed):
        node_ids, edges = random_world(seed)
        csr, oracle = both_engines(node_ids, edges)
        assert csr.nodes == sorted(node_ids)
        assert list(csr.edges) == sorted(set(edges))
        back = to_networkx(csr)
        assert list(back.nodes) == list(oracle.nodes)
        assert list(back.edges) == list(oracle.edges)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_degrees_and_isolated(self, seed):
        node_ids, edges = random_world(seed)
        csr, oracle = both_engines(node_ids, edges)
        in_deg = dict(oracle.in_degree())
        out_deg = dict(oracle.out_degree())
        assert csr.in_degrees().tolist() == [in_deg[n] for n in csr.nodes]
        assert csr.out_degrees().tolist() == [out_deg[n] for n in csr.nodes]
        assert csr.isolated_count() == sum(
            1 for n in oracle if in_deg[n] == 0 and out_deg[n] == 0
        )
        for node in csr.nodes:
            assert list(csr.successors(node)) == sorted(oracle.successors(node))
            assert list(csr.predecessors(node)) == sorted(
                oracle.predecessors(node)
            )
            assert csr.degree(node) == oracle.degree(node)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutual_pairs(self, seed):
        node_ids, edges = random_world(seed, p=0.12)
        csr, oracle = both_engines(node_ids, edges)
        src, dst = csr.mutual_pairs()
        got = {
            (int(csr.node_ids[s]), int(csr.node_ids[d]))
            for s, d in zip(src, dst)
        }
        want = {
            (u, v)
            for u, v in oracle.edges
            if u < v and oracle.has_edge(v, u)
        }
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_component_size_multiset(self, seed):
        node_ids, edges = random_world(seed, p=0.02)
        csr, oracle = both_engines(node_ids, edges)
        want = sorted(
            (len(c) for c in nx.weakly_connected_components(oracle)),
            reverse=True,
        )
        assert csr.component_sizes() == want

    def test_chain_worst_case_components(self):
        """A long chain maximizes label-propagation depth."""
        ids = list(range(1, 1001))
        csr = csr_from_edge_list(ids, [(i, i + 1) for i in ids[:-1]])
        assert csr.component_sizes() == [1000]

    def test_empty_graph(self):
        csr = csr_from_edge_list([], [])
        assert csr.n_nodes == 0 and csr.n_edges == 0
        assert csr.component_sizes() == []
        assert csr.isolated_count() == 0


class TestAnalysisParity:
    def _toxicity(self, node_ids, seed):
        rng = np.random.default_rng(seed + 1000)
        return {n: float(rng.random()) for n in sorted(node_ids)}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_social_analysis(self, seed):
        node_ids, edges = random_world(seed)
        csr, oracle = both_engines(node_ids, edges)
        tox = self._toxicity(node_ids, seed)
        fast = analyze_social_network(csr, tox)
        slow = oracles.analyze_social_network(oracle, tox)
        assert fast.n_users == slow.n_users
        assert fast.isolated_users == slow.isolated_users
        assert fast.in_degrees.tolist() == slow.in_degrees.tolist()
        assert fast.out_degrees.tolist() == slow.out_degrees.tolist()
        assert fast.top_in == slow.top_in
        assert fast.top_out == slow.top_out
        # Same values AND the same dict insertion order (float bits
        # depend on operand order; the payload depends on key order).
        assert list(fast.toxicity_by_in_degree.items()) == list(
            slow.toxicity_by_in_degree.items()
        )
        assert list(fast.toxicity_by_out_degree.items()) == list(
            slow.toxicity_by_out_degree.items()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hateful_core(self, seed):
        node_ids, edges = random_world(seed, p=0.12)
        csr, oracle = both_engines(node_ids, edges)
        rng = np.random.default_rng(seed + 2000)
        counts = {n: int(rng.integers(0, 300)) for n in sorted(node_ids)}
        tox = {n: float(rng.random()) for n in sorted(node_ids)}
        fast = extract_hateful_core(csr, counts, tox)
        slow = oracles.extract_hateful_core(oracle, counts, tox)
        assert fast.members == slow.members
        assert fast.component_sizes == slow.component_sizes
        assert fast.qualifying_users == slow.qualifying_users
        assert isinstance(fast.subgraph, CSRGraph)
        for member in fast.members:
            assert member in fast and member in slow

    def test_top_k_tie_break_ignores_insertion_order(self):
        """Regression: equal degrees used to surface in dict insertion
        order, making the top-K lines a function of node order."""
        # in-degree: 2 and 5 tie at 3; 8 and 9 tie at 1.
        edges = [
            (1, 2), (3, 2), (4, 2),
            (1, 5), (3, 5), (4, 5),
            (1, 8), (3, 9),
        ]
        want_top_in = [(2, 3), (5, 3), (8, 1), (9, 1)]
        rng = np.random.default_rng(99)
        for _ in range(12):
            shuffled = [edges[i] for i in rng.permutation(len(edges))]
            oracle = nx.DiGraph()
            oracle.add_edges_from(shuffled)
            csr = csr_from_edge_list(range(1, 10), shuffled)
            assert oracles.analyze_social_network(
                oracle, top_k=4
            ).top_in == want_top_in
            assert analyze_social_network(csr, top_k=4).top_in == want_top_in

