"""Seeded independent-cascade hate-diffusion simulation.

The new workload the CSR engine unlocks, modeled on Mathew et al.'s
"Spread of hate speech in online social media" (PAPERS.md): hateful
content starts at a seed set and spreads along follow edges in discrete
BFS rounds.  When node ``u`` activates, each follower edge ``u -> v``
gets exactly one activation attempt in the following round, succeeding
with probability::

    p(u -> v) = clip(base_p + tox_weight * toxicity[u], 0, 1)

so highly toxic accounts propagate hate further — the toxicity-weighted
cascade Mathew et al. measure on the Gab follower network.

Determinism contract: all randomness comes from one
``np.random.default_rng`` seeded per (run seed, strategy ordinal); each
round's activation attempts are drawn over the frontier's out-edges in
canonical CSR order (frontier sorted ascending, neighbors sorted within
each row), so the whole cascade — and the serialized report — is a pure
function of (graph, toxicity, parameters).  ``DiffusionReport.
to_payload`` emits only lists and scalars, never set order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "DiffusionReport",
    "DiffusionRun",
    "run_diffusion",
    "simulate_cascade",
]

#: Default per-edge base activation probability.
DEFAULT_BASE_P = 0.05
#: Default weight of the source's median toxicity on the edge probability.
DEFAULT_TOX_WEIGHT = 0.25
#: Default cap on cascade rounds (power-law graphs saturate far earlier).
DEFAULT_MAX_ROUNDS = 20


@dataclass
class DiffusionRun:
    """One cascade: a named seed strategy and its round-by-round spread."""

    strategy: str
    seeds: list[int]                  # Gab IDs, sorted
    rounds: list[int]                 # newly infected per round (round 0 = seeds)
    total_infected: int
    n_nodes: int

    @property
    def reach(self) -> float:
        """Fraction of the graph the cascade infected."""
        return self.total_infected / self.n_nodes if self.n_nodes else 0.0

    def to_payload(self) -> dict:
        return {
            "strategy": self.strategy,
            "seeds": list(self.seeds),
            "rounds": list(self.rounds),
            "total_infected": self.total_infected,
            "n_nodes": self.n_nodes,
            "reach": self.reach,
        }


@dataclass
class DiffusionReport:
    """Cascade results per seed strategy, plus the run parameters."""

    n_nodes: int
    n_edges: int
    base_p: float
    tox_weight: float
    max_rounds: int
    seed: int
    runs: list[DiffusionRun]

    def to_payload(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "base_p": self.base_p,
            "tox_weight": self.tox_weight,
            "max_rounds": self.max_rounds,
            "seed": self.seed,
            "runs": [run.to_payload() for run in self.runs],
        }

    def summary_text(self) -> str:
        lines = [
            "hate diffusion (independent cascade)",
            "====================================",
            f"graph: {self.n_nodes} nodes, {self.n_edges} edges",
            f"params: base_p={self.base_p} tox_weight={self.tox_weight} "
            f"max_rounds={self.max_rounds} seed={self.seed}",
        ]
        for run in self.runs:
            peak = max(run.rounds[1:], default=0)
            lines.append(
                f"{run.strategy:<16s} seeds={len(run.seeds):<4d} "
                f"infected={run.total_infected:<6d} "
                f"reach={run.reach:6.2%} rounds={len(run.rounds) - 1} "
                f"peak_round={peak}"
            )
        return "\n".join(lines)


def _toxicity_array(
    graph: CSRGraph, toxicity: Mapping[int, float]
) -> np.ndarray:
    """Per-node toxicity in canonical order (0.0 where unmeasured)."""
    values = np.zeros(graph.n_nodes, dtype=np.float64)
    for index, gab_id in enumerate(graph.node_ids):
        value = toxicity.get(int(gab_id))
        if value is not None:
            values[index] = value
    return values


def simulate_cascade(
    graph: CSRGraph,
    toxicity_by_index: np.ndarray,
    seed_indices: np.ndarray,
    rng: np.random.Generator,
    base_p: float = DEFAULT_BASE_P,
    tox_weight: float = DEFAULT_TOX_WEIGHT,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[list[int], np.ndarray]:
    """One independent cascade; returns (per-round counts, active mask).

    Frontier-based BFS: each round gathers the frontier's out-edges as
    one vectorized slice (sources repeated by out-degree), drops edges
    into already-active nodes, draws one uniform per remaining edge in
    canonical order, and the distinct successful targets become the next
    frontier.  A node is attempted from each in-edge at most once
    because sources leave the frontier after one round and targets leave
    the candidate set once active.
    """
    active = np.zeros(graph.n_nodes, dtype=bool)
    frontier = np.unique(seed_indices.astype(np.int64, copy=False))
    active[frontier] = True
    per_round = [int(frontier.size)]
    for _ in range(max_rounds):
        if not frontier.size:
            break
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        # Gather every frontier out-edge in one shot: each edge's slot in
        # the row is its global position minus its row's running offset.
        base = np.repeat(starts, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        targets = graph.indices[base + within].astype(np.int64, copy=False)
        sources = np.repeat(frontier, counts)
        live = ~active[targets]
        targets = targets[live]
        sources = sources[live]
        if not targets.size:
            break
        probs = np.clip(
            base_p + tox_weight * toxicity_by_index[sources], 0.0, 1.0
        )
        draws = rng.random(targets.size)
        infected = np.unique(targets[draws < probs])
        if not infected.size:
            break
        active[infected] = True
        frontier = infected
        per_round.append(int(infected.size))
    return per_round, active


def run_diffusion(
    graph: CSRGraph,
    toxicity: Mapping[int, float],
    core_members: Iterable[int] = (),
    n_seeds: int = 10,
    base_p: float = DEFAULT_BASE_P,
    tox_weight: float = DEFAULT_TOX_WEIGHT,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    seed: int = 0,
) -> DiffusionReport:
    """Cascades from three seed strategies, reported side by side.

    * ``hateful_core`` — the §4.5.1 core members present in the graph
      (the empirically hateful accounts; omitted when none are given).
    * ``top_out_degree`` — the ``n_seeds`` most-followed-by accounts
      (ties broken by ascending Gab ID).
    * ``random`` — ``n_seeds`` uniform nodes from the seeded generator.

    Each strategy draws from ``default_rng([seed, STRATEGY_STREAM])``
    with a fixed per-strategy stream constant, so the presence or
    absence of one strategy never perturbs the others' cascades.
    """
    tox_by_index = _toxicity_array(graph, toxicity)
    strategies: list[tuple[str, int, np.ndarray]] = []

    core_indices = sorted(
        index
        for index in (graph.index_of(int(m)) for m in core_members)
        if index is not None
    )
    if core_indices:
        strategies.append(
            ("hateful_core", 1, np.asarray(core_indices, dtype=np.int64))
        )

    k = min(n_seeds, graph.n_nodes)
    if k:
        top = np.lexsort((graph.node_ids, -graph.out_degrees()))[:k]
        strategies.append(
            ("top_out_degree", 2, np.sort(top.astype(np.int64, copy=False)))
        )
        pick_rng = np.random.default_rng([seed, 4])
        random_seeds = np.sort(
            pick_rng.choice(graph.n_nodes, size=k, replace=False)
        ).astype(np.int64)
        strategies.append(("random", 3, random_seeds))

    runs: list[DiffusionRun] = []
    for strategy, stream, seeds in strategies:
        rng = np.random.default_rng([seed, stream])
        per_round, active = simulate_cascade(
            graph,
            tox_by_index,
            seeds,
            rng,
            base_p=base_p,
            tox_weight=tox_weight,
            max_rounds=max_rounds,
        )
        runs.append(DiffusionRun(
            strategy=strategy,
            seeds=[int(graph.node_ids[i]) for i in seeds],
            rounds=per_round,
            total_infected=int(active.sum()),
            n_nodes=graph.n_nodes,
        ))
    return DiffusionReport(
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        base_p=base_p,
        tox_weight=tox_weight,
        max_rounds=max_rounds,
        seed=seed,
        runs=runs,
    )
