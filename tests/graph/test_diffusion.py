"""The hate-diffusion cascade: semantics and cross-process determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.graph import run_diffusion, simulate_cascade
from repro.graph.csr import csr_from_edge_list

SRC = str(Path(__file__).resolve().parents[2] / "src")


def toy_graph(seed=3, n=120, p=0.04):
    rng = np.random.default_rng(seed)
    ids = sorted(rng.choice(10_000, size=n, replace=False).tolist())
    edges = [
        (u, v) for u in ids for v in ids if u != v and rng.random() < p
    ]
    graph = csr_from_edge_list(ids, edges)
    tox = {g: float(rng.random()) for g in ids}
    return graph, tox


class TestCascadeSemantics:
    def test_round_zero_is_the_seed_set(self):
        graph, tox = toy_graph()
        report = run_diffusion(graph, tox, n_seeds=7, seed=5)
        for run in report.runs:
            assert run.rounds[0] == len(run.seeds)
            assert run.total_infected == sum(run.rounds)
            assert run.seeds == sorted(run.seeds)
            assert 0.0 <= run.reach <= 1.0

    def test_zero_probability_never_spreads(self):
        graph, tox = toy_graph()
        report = run_diffusion(
            graph, tox, n_seeds=5, base_p=0.0, tox_weight=0.0, seed=1
        )
        for run in report.runs:
            assert run.total_infected == len(run.seeds)
            assert run.rounds == [len(run.seeds)]

    def test_certain_probability_is_bfs_reachability(self):
        graph, tox = toy_graph(seed=8, n=60, p=0.03)
        rng = np.random.default_rng(0)
        seeds = np.asarray([0, 1], dtype=np.int64)
        per_round, active = simulate_cascade(
            graph,
            np.zeros(graph.n_nodes),
            seeds,
            rng,
            base_p=1.0,
            tox_weight=0.0,
            max_rounds=10_000,
        )
        # Oracle: plain BFS over out-edges.
        want = set(seeds.tolist())
        frontier = set(seeds.tolist())
        while frontier:
            frontier = {
                int(v)
                for u in frontier
                for v in graph.out_neighbors(u)
            } - want
            want |= frontier
        assert set(np.flatnonzero(active).tolist()) == want
        assert sum(per_round) == len(want)

    def test_strategies_are_stream_independent(self):
        """Adding the core strategy must not perturb the other cascades."""
        graph, tox = toy_graph()
        core = graph.nodes[:6]
        with_core = run_diffusion(graph, tox, core_members=core, seed=9)
        without = run_diffusion(graph, tox, seed=9)
        by_name = {r.strategy: r for r in with_core.runs}
        assert set(by_name) == {"hateful_core", "top_out_degree", "random"}
        for run in without.runs:
            assert run.to_payload() == by_name[run.strategy].to_payload()

    def test_same_seed_same_payload(self):
        graph, tox = toy_graph()
        a = run_diffusion(graph, tox, core_members=graph.nodes[:4], seed=2)
        b = run_diffusion(graph, tox, core_members=graph.nodes[:4], seed=2)
        assert json.dumps(a.to_payload()) == json.dumps(b.to_payload())


HASHSEED_SCRIPT = """
import json
import sys

import numpy as np

from repro.core.socialnet import analyze_social_network, extract_hateful_core
from repro.graph import csr_from_edge_list, run_diffusion

# Route everything through hash-ordered containers on purpose: a set of
# string-keyed users, a set of edges.  The engine must sort all of it
# back into canonical order before any float or RNG touches it.
names = {"user-%03d" % i for i in range(150)}
gab = {name: 1000 + 13 * int(name[-3:]) for name in names}
members = set(gab.values())
edges = set()
for name in names:
    u = gab[name]
    for step in (13, 39, 91, 338):
        v = 1000 + (u - 1000 + step) % (13 * 150)
        if v in members and v != u:
            edges.add((u, v))
            if step == 13:
                edges.add((v, u))
tox = {g: ((g * 2654435761) % 1000) / 1000.0 for g in members}
counts = {g: (g * 7) % 300 for g in members}

graph = csr_from_edge_list(members, edges)
core = extract_hateful_core(graph, counts, tox)
report = run_diffusion(graph, tox, core_members=core.members, seed=6)
social = analyze_social_network(graph, tox)
payload = {
    "diffusion": report.to_payload(),
    "core": {
        "members": list(core.members),
        "component_sizes": core.component_sizes,
        "qualifying": core.qualifying_users,
    },
    "top_in": social.top_in,
    "buckets": list(social.toxicity_by_in_degree.items()),
}
sys.stdout.write(json.dumps(payload, sort_keys=True))
"""


def _run_with_hashseed(tmp_path, hashseed):
    script = tmp_path / "diffuse_hashseed.py"
    script.write_text(HASHSEED_SCRIPT)
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_diffusion_report_is_hashseed_invariant(tmp_path):
    """Byte-identical diffusion + core + Fig. 9 payloads under different
    PYTHONHASHSEED values, with hash-ordered inputs on purpose."""
    one = _run_with_hashseed(tmp_path, 1)
    two = _run_with_hashseed(tmp_path, 2)
    assert one == two
    assert json.loads(one)["diffusion"]["runs"]
