"""Build a ready-to-serve stack from a simulated world.

The serve API reads a *sealed* corpus: the natural way to obtain one is
to run the §3 pipeline against a generated world, score it, and extract
the §4.5.1 hateful core — exactly what `repro run` does, minus the
analyses the read API does not expose.  :func:`build_serve_stack` does
that once and mounts a :class:`~repro.serve.api.ServeApp` over the
result on a *fresh* virtual clock, so the serve timeline starts at the
epoch regardless of how long the crawl took.

The hate-diffusion summary served at ``/api/diffusion/summary`` is also
precomputed here: one seeded independent-cascade run over the induced
follow graph (core-seeded, top-degree-seeded and random-seeded), frozen
into a payload dict.  Deterministic inputs, fixed seed — the endpoint
body is a pure function of (scale, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import CrawlArtifacts, ReproductionPipeline
from repro.core.scoring import ScoreStore
from repro.core.socialnet import (
    HatefulCore,
    extract_hateful_core,
    per_user_activity_toxicity,
)
from repro.graph import run_diffusion
from repro.net.clock import VirtualClock
from repro.net.transport import LoopbackTransport
from repro.platform.config import WorldConfig
from repro.serve.api import ServeApp
from repro.store import CorpusStore

__all__ = ["ServeStack", "build_serve_stack", "core_usernames"]

#: Fixed seed for the precomputed serve-side diffusion summary.
DIFFUSION_SEED = 11


def _usernames_for(core: HatefulCore, artifacts: CrawlArtifacts) -> list[str]:
    by_id = {gab_id: name for name, gab_id in artifacts.gab_ids.items()}
    return sorted(
        by_id[member] for member in core.members if member in by_id
    )


def core_usernames(artifacts: CrawlArtifacts, score_store: ScoreStore) -> list[str]:
    """Usernames of the §4.5.1 hateful core, in sorted order.

    The core extractor works in Gab-id space; the serve API keys users
    by username, so the ``gab_ids`` mapping is inverted here.
    """
    counts, toxicity = per_user_activity_toxicity(
        artifacts.corpus, artifacts.gab_ids, score_store
    )
    core = extract_hateful_core(artifacts.graph, counts, toxicity)
    return _usernames_for(core, artifacts)


@dataclass
class ServeStack:
    """A mounted serve deployment plus the artefacts behind it."""

    app: ServeApp
    transport: LoopbackTransport
    clock: VirtualClock
    corpus: CorpusStore
    score_store: ScoreStore
    core_members: list[str]
    core: HatefulCore | None = None
    diffusion: dict | None = None


def build_serve_stack(
    scale: float = 0.002,
    seed: int = 42,
    store_dir: str | None = None,
    latency: float = 0.05,
    cache_entries: int = 4096,
    rate: float = 5.0,
    capacity: float = 20.0,
) -> ServeStack:
    """Crawl + score a world at ``scale``/``seed`` and mount the API.

    Args:
        scale: world scale factor (0.002 is the tier-1 test scale).
        seed: world seed; the corpus, scores, core and diffusion summary
            are all deterministic functions of (scale, seed).
        store_dir: spill directory for sealed segments (refs-only
            snapshots make the manifest hash cheap); None keeps
            segments inline.
        latency: serve-side wire latency (seconds, virtual).
        cache_entries: render-cache capacity.
        rate: per-client sustained requests/second budget.
        capacity: per-client burst allowance.
    """
    pipeline = ReproductionPipeline(
        WorldConfig(scale=scale, seed=seed), store_dir=store_dir
    )
    artifacts = pipeline.stage_crawl()
    score_store = pipeline.stage_score(artifacts)
    counts, toxicity = per_user_activity_toxicity(
        artifacts.corpus, artifacts.gab_ids, score_store
    )
    core = extract_hateful_core(artifacts.graph, counts, toxicity)
    members = _usernames_for(core, artifacts)
    diffusion = run_diffusion(
        artifacts.graph, toxicity, core_members=core.members,
        seed=DIFFUSION_SEED,
    ).to_payload()
    corpus = artifacts.corpus
    clock = VirtualClock()
    transport = LoopbackTransport(clock=clock, latency=latency)
    app = ServeApp(
        corpus,
        clock,
        score_store=score_store,
        core_members=members,
        diffusion=diffusion,
        cache_entries=cache_entries,
        rate=rate,
        capacity=capacity,
    )
    transport.register(app)
    return ServeStack(
        app=app,
        transport=transport,
        clock=clock,
        corpus=corpus,
        score_store=score_store,
        core_members=members,
        core=core,
        diffusion=diffusion,
    )
