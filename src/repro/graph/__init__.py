"""Deterministic CSR graph engine + the hate-diffusion workload.

The million-node replacement for the networkx follow-graph hot paths:
:mod:`repro.graph.csr` holds the adjacency engine, :mod:`repro.graph.
diffusion` the independent-cascade simulation built on top of it.
"""

from repro.graph.csr import (
    CSRGraph,
    csr_from_edge_list,
    csr_from_follow_records,
)
from repro.graph.diffusion import (
    DiffusionReport,
    DiffusionRun,
    run_diffusion,
    simulate_cascade,
)

__all__ = [
    "CSRGraph",
    "DiffusionReport",
    "DiffusionRun",
    "csr_from_edge_list",
    "csr_from_follow_records",
    "run_diffusion",
    "simulate_cascade",
]
