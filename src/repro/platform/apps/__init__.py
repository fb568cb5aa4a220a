"""HTTP origins for the synthetic world.

:func:`build_origins` stands up every site the paper's crawl touched on a
single loopback transport: dissenter.com, gab.com, youtube.com,
youtu.be, api.pushshift.io, and reddit.com.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.clock import VirtualClock
from repro.net.transport import FaultPlan, LoopbackTransport
from repro.platform.apps.dissenter_app import DissenterApp
from repro.platform.apps.gab_app import GabApp
from repro.platform.apps.pushshift_app import PushshiftApp, RedditApp
from repro.platform.apps.youtube_app import YouTubeApp, YouTuBeApp
from repro.platform.world import World

__all__ = [
    "DissenterApp",
    "GabApp",
    "Origins",
    "PushshiftApp",
    "RedditApp",
    "YouTubeApp",
    "YouTuBeApp",
    "build_origins",
]


@dataclass
class Origins:
    """Everything needed to crawl the world over HTTP."""

    transport: LoopbackTransport
    clock: VirtualClock
    dissenter: DissenterApp
    gab: GabApp
    youtube: YouTubeApp
    youtu_be: YouTuBeApp
    pushshift: PushshiftApp
    reddit: RedditApp


def build_origins(
    world: World,
    clock: VirtualClock | None = None,
    latency: float = 0.05,
    with_faults: bool = False,
    seed: int = 0,
) -> Origins:
    """Stand up all synthetic origins on one loopback transport.

    Args:
        world: the generated world to serve.
        clock: shared simulation clock (fresh VirtualClock if omitted).
        latency: per-request simulated round-trip seconds.
        with_faults: inject timeouts/5xx per the world config's fault
            rates (exercises the crawler's §3.2 re-request logic).
        seed: fault-injection RNG seed.  Session tokens are drawn from
            the world seed instead, so they do not move with this one.
    """
    clock = clock if clock is not None else VirtualClock()
    faults = None
    if with_faults:
        faults = FaultPlan(
            timeout_rate=world.config.fault_timeout_rate,
            error_rate=world.config.fault_error_rate,
        )
    transport = LoopbackTransport(
        clock=clock, latency=latency, faults=faults, seed=seed
    )

    dissenter = DissenterApp(world.dissenter, clock, session_seed=world.config.seed)
    gab = GabApp(world.gab, world.social, clock)
    youtube = YouTubeApp(world.youtube)
    youtu_be = YouTuBeApp(world.youtube)
    pushshift = PushshiftApp(world.reddit, gab=world.gab)
    reddit = RedditApp(world.reddit)

    for app in (dissenter, gab, youtube, youtu_be, pushshift, reddit):
        transport.register(app)

    return Origins(
        transport=transport,
        clock=clock,
        dissenter=dissenter,
        gab=gab,
        youtube=youtube,
        youtu_be=youtu_be,
        pushshift=pushshift,
        reddit=reddit,
    )
