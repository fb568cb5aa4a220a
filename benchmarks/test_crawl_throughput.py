"""R2 — Throughput: the concurrent fetch engine vs the sequential crawl.

The paper's serial ~1 req/s crawl is the baseline; the fetch engine keeps
K virtual connections in flight.  The win shows up on two axes:

* **Simulated seconds** (``VirtualClock.total_slept``): the crawl's
  modelled duration collapses from the serial sum of waits to the
  makespan over K lanes — the acceptance bar is ≥3× at K=4.
* **Wall seconds**: the crawl-wide parse memo shaves real CPU; the
  corpus must stay bit-identical.
"""

import time

import pytest

import repro.core.pipeline as pipeline_mod
from benchmarks._report import record, row
from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import result_to_payload
from repro.platform.config import WorldConfig
from repro.platform.world import build_world
from tests.oracles.parse_memo import NeverHitParseMemo

SCALE = 0.002
SEED = 7
CONNECTIONS = (2, 4, 8)


def _crawl(config, world, connections, memoise=True):
    # memoise=False is the wall-clock baseline: every discussion page
    # fetched is parsed afresh.
    pipeline = ReproductionPipeline(
        config, world=world, connections=connections
    )
    with pytest.MonkeyPatch.context() as patch:
        if not memoise:
            patch.setattr(pipeline_mod, "PageParseMemo", NeverHitParseMemo)
        t0 = time.perf_counter()
        artifacts = pipeline.stage_crawl()
        wall = time.perf_counter() - t0
    simulated = pipeline.client.clock.total_slept
    requests = pipeline.origins.transport.requests_attempted
    return artifacts, wall, simulated, requests


def test_crawl_throughput_across_connections():
    config = WorldConfig(scale=SCALE, seed=SEED)
    world = build_world(config)

    # Wall-clock baseline: the parse memo never hits.  Corpus must match
    # regardless; best-of-3 walls keep the comparison out of scheduler
    # noise.
    plain_artifacts, plain_wall, _, _ = _crawl(
        config, world, connections=1, memoise=False
    )

    base_artifacts, base_wall, base_sim, base_requests = _crawl(
        config, world, connections=1
    )
    base_payload = result_to_payload(base_artifacts.corpus)
    assert result_to_payload(plain_artifacts.corpus) == base_payload
    for _ in range(2):
        plain_wall = min(plain_wall, _crawl(
            config, world, connections=1, memoise=False
        )[1])
        base_wall = min(base_wall, _crawl(config, world, connections=1)[1])

    lines = [
        row("crawl size (requests)", "-", base_requests),
        row("sequential simulated duration", "weeks at 1 req/s",
            f"{base_sim:.0f} s"),
        row("sequential simulated rate", "~1 req/s",
            f"{base_requests / base_sim:.2f} req/s"),
        row("wall time, parse memo off", "-",
            f"{plain_wall:.2f} s"),
        row("sequential wall time", "< memo off",
            f"{base_wall:.2f} s ({plain_wall / base_wall:.2f}x)"),
    ]

    speedups = {}
    walls = {1: base_wall}
    for connections in CONNECTIONS:
        artifacts, wall, simulated, requests = _crawl(
            config, world, connections
        )
        assert requests == base_requests
        assert result_to_payload(artifacts.corpus) == base_payload
        speedups[connections] = base_sim / simulated
        walls[connections] = wall
        lines += [
            row(f"K={connections} simulated duration", f"~1/{connections}×",
                f"{simulated:.0f} s ({base_sim / simulated:.2f}x faster)"),
            row(f"K={connections} simulated rate", "-",
                f"{requests / simulated:.2f} req/s"),
            row(f"K={connections} wall time", "~flat (accounting only)",
                f"{wall:.2f} s"),
        ]

    record("crawl_throughput",
           "R2 — concurrent fetch engine throughput (bit-identical corpus)",
           lines)

    # The tentpole acceptance bar: >= 3x simulated reduction at K=4.
    assert speedups[4] >= 3.0
    # More lanes never hurt.
    assert speedups[8] >= speedups[4] >= speedups[2] > 1.0
    # The wall-clock win comes from the crawl-wide parse memo (the
    # shadow passes re-request ~20% of all pages; unchanged ones parse
    # once).  It is a small win at this scale -- per-request client
    # machinery dominates -- so the guard allows scheduler noise while
    # the record shows the best-of-3 ratio.
    assert base_wall <= plain_wall * 1.05
