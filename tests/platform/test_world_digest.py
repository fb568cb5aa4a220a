"""Golden world digests: the bytes a seeded world build must reproduce.

A world is a pure function of its :class:`WorldConfig` and of the exact
sequence of draws the generators make from their RNG streams.  These
digests pin that function for two configurations, so any change to the
sampling code that alters even one draw — a different ``choice``
algorithm, a reordered call, a float summed in another order — fails
here before it reaches the report digests in ``perfbench/``.

``repr(world)`` covers every generated record, but numpy truncates the
URL weight array in its repr, so the weights' raw bytes are hashed too.
"""

import hashlib

import pytest

from repro.platform import WorldConfig, build_world
from repro.platform.world import World

#: (config, sha256 of repr(world) + url weight bytes).
GOLDEN: tuple[tuple[WorldConfig, str], ...] = (
    # The ``small_world`` fixture.
    (WorldConfig(scale=0.002, seed=42),
     "e3d1bae12a4b5896fcd18e1e63390f8a57535523f75905d6dc588419fcc690ca"),
    # The perfbench world for benchmark seed 0.
    (WorldConfig(scale=0.002, seed=107, baseline_sample_cap=1000),
     "4cff0c4a5d2001aafeb11d9459e74ed5f25e7f3cd5b143a75240b670a2560233"),
)


def world_digest(world: World) -> str:
    """sha256 over the world's repr and its URL weights' raw bytes."""
    payload = repr(world).encode() + world.urls.weights.tobytes()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("config, digest", GOLDEN,
                         ids=["small-world-42", "perfbench-107"])
def test_world_build_matches_golden_digest(config, digest):
    assert world_digest(build_world(config)) == digest
