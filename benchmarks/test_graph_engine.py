"""GE — the CSR graph engine vs networkx at 10^6 nodes.

The §4.5 analyses were capped by networkx's dict-of-dicts adjacency;
this bench builds a seeded power-law digraph at a million nodes (about
3M edges, roughly 20x the paper's 45,524-user graph) and times the
three hot reductions — degrees + isolated count, mutual-edge
detection, weak connected components — on both engines, asserting the
answers identical and the CSR engine >= 10x faster on each.  The
networkx baselines come from :mod:`tests.oracles.graph`.

``GRAPH_BENCH_NODES`` scales the universe down for CI smoke runs (the
parity asserts still run; the speedup floor only applies at full size,
where constant factors no longer dominate).
"""

import os
import time

import numpy as np
import pytest

from benchmarks._report import record, row
from repro.graph.csr import CSRGraph

pytest.importorskip("networkx")

from tests.oracles.graph import (
    degrees_and_isolated,
    mutual_pair_count,
    to_networkx,
    weak_component_sizes,
)

FULL_NODES = 1_000_000
N_NODES = int(os.environ.get("GRAPH_BENCH_NODES", FULL_NODES))
EDGES_PER_NODE = 3
SPEEDUP_FLOOR = 10.0


def build_power_law_edges(n_nodes, seed=7):
    """Seeded (src, dst) index arrays with a heavy-tailed in-degree."""
    rng = np.random.default_rng(seed)
    m = n_nodes * EDGES_PER_NODE
    src = rng.integers(0, n_nodes, size=m, dtype=np.int64)
    # Quadratic inverse-CDF sampling concentrates targets on low ranks,
    # giving the power-law-ish in-degree tail of Fig. 9a.
    dst = (rng.random(m) ** 2.5 * n_nodes).astype(np.int64)
    # A mutual band: reverse a slice so the §4.5.1 intersection has work.
    take = m // 20
    src = np.concatenate([src, dst[:take]])
    dst = np.concatenate([dst, src[:take]])
    keep = src != dst
    return src[keep], dst[keep]


def timed(fn, repeats=1):
    """(result, best-of-``repeats`` wall time) — min cuts scheduler noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_graph_engine(benchmark):
    src, dst = build_power_law_edges(N_NODES)
    node_ids = np.arange(N_NODES, dtype=np.int64) * 7 + 1000

    # Each engine is timed in its own steady state: all CSR reductions
    # run before the multi-GB networkx graph exists (its residency
    # would otherwise evict the CSR arrays from cache mid-measurement).
    graph, t_csr_build = timed(
        lambda: CSRGraph.from_index_edges(node_ids, src, dst)
    )

    def csr_degrees():
        return (
            graph.in_degrees(), graph.out_degrees(), graph.isolated_count()
        )

    (in_arr, out_arr, isolated), t_csr_deg = timed(csr_degrees, repeats=3)

    def csr_mutual():
        s, d = graph.mutual_pairs()
        return int(s.size)

    n_mutual, t_csr_mut = timed(csr_mutual, repeats=3)
    sizes, t_csr_cc = timed(graph.component_sizes, repeats=3)
    benchmark.pedantic(csr_degrees, rounds=1, iterations=1)

    oracle, t_nx_build = timed(lambda: to_networkx(graph))
    assert graph.n_nodes == oracle.number_of_nodes()
    assert graph.n_edges == oracle.number_of_edges()

    (nx_in, nx_out, nx_iso), t_nx_deg = timed(
        lambda: degrees_and_isolated(oracle)
    )
    assert isolated == nx_iso
    assert in_arr.tolist() == [nx_in[n] for n in graph.nodes]
    assert out_arr.tolist() == [nx_out[n] for n in graph.nodes]

    nx_n_mutual, t_nx_mut = timed(lambda: mutual_pair_count(oracle))
    assert n_mutual == nx_n_mutual

    nx_sizes, t_nx_cc = timed(lambda: weak_component_sizes(oracle))
    assert sizes == nx_sizes

    speedups = {
        "degrees+isolated": t_nx_deg / t_csr_deg,
        "mutual edges": t_nx_mut / t_csr_mut,
        "components": t_nx_cc / t_csr_cc,
    }
    lines = [
        row("nodes / edges", "45,524 / ~1.1M (paper, full crawl)",
            f"{graph.n_nodes:,} / {graph.n_edges:,}"),
        row("build", "-",
            f"csr {t_csr_build:.3f}s  nx {t_nx_build:.3f}s"),
        row("degrees+isolated", f">= {SPEEDUP_FLOOR:.0f}x",
            f"csr {t_csr_deg:.4f}s  nx {t_nx_deg:.4f}s  "
            f"{speedups['degrees+isolated']:.1f}x"),
        row("mutual edges", f">= {SPEEDUP_FLOOR:.0f}x",
            f"csr {t_csr_mut:.4f}s  nx {t_nx_mut:.4f}s  "
            f"{speedups['mutual edges']:.1f}x"),
        row("components", f">= {SPEEDUP_FLOOR:.0f}x",
            f"csr {t_csr_cc:.4f}s  nx {t_nx_cc:.4f}s  "
            f"{speedups['components']:.1f}x"),
        row("mutual pairs found", "-", f"{n_mutual:,}"),
        row("isolated users", "-",
            f"{isolated:,} ({isolated / graph.n_nodes:.1%})"),
        row("components found", "-", f"{len(sizes):,}"),
    ]
    record(
        "graph_engine",
        "Graph engine — CSR vs networkx",
        lines,
        context={"nodes": N_NODES, "edges_per_node": EDGES_PER_NODE,
                 "seed": 7},
    )

    if N_NODES >= FULL_NODES:
        for op, speedup in speedups.items():
            assert speedup >= SPEEDUP_FLOOR, (
                f"{op}: {speedup:.1f}x < {SPEEDUP_FLOOR}x"
            )
