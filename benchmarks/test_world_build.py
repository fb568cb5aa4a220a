"""R4 — World build: seeded generation time at two scales.

Every ``repro`` command builds a synthetic world before it crawls,
scores or serves, and most of the build is per-word text generation.
The generators draw each word through ``repro.platform.draws``, whose
kernel calls the bit generator's ``next_uint32``/``next_double`` and
does numpy's arithmetic on the results, so it makes the same draws as
the numpy calls it replaces without their per-call overhead.  This
bench times ``build_world`` at scales 0.002 and 0.01 and asserts both
worlds' golden digests, so a faster build is only recorded if it builds
byte-identical worlds.  It has no timing assert.

``PARENT_S`` holds the build times with one numpy call per draw
(``rng.integers``/``rng.random`` per word, numpy float64 word-class
mixes): the median over three runs of this bench, interleaved with
three runs of the kernel, on a 2-core x86-64 VM (Python 3.11, numpy
2.4).  That host's speed swings by up to a quarter between runs, and a
recorded ratio inherits that spread.
"""

import os
import time

from benchmarks._report import RECORD, record, row
from repro.platform import WorldConfig, build_world
from tests.platform.test_world_digest import world_digest

SEED = 7
REPEATS = 3

#: scale -> sha256 of the seed-7 world (``world_digest``), computed with
#: the ``rng.choice``-per-word generators.
GOLDEN = {
    0.002: "9d855971ff5f9c25be3d878dbfdd7d1b9c9c7ade8962cafadc4330f1a7499be0",
    0.01: "f00d19c87d75ce333539d2aded52ad9515e97fbc5ec64e9f965a5aa0cc3fd3cd",
}

#: scale -> best-of-REPEATS build seconds with one numpy call per draw.
PARENT_S = {0.002: 1.76, 0.01: 4.07}


def _best_build(scale: float) -> tuple[float, str]:
    best = float("inf")
    digest = ""
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        world = build_world(WorldConfig(scale=scale, seed=SEED))
        best = min(best, time.perf_counter() - t0)
        digest = world_digest(world)
        del world
    return best, digest


def test_world_build_time_and_digest():
    # The synthetic hate lexicon is built once per process; keep that
    # one-off cost out of the first timed build.
    build_world(WorldConfig(scale=0.0005, seed=SEED))

    lines = []
    for scale, golden in GOLDEN.items():
        seconds, digest = _best_build(scale)
        assert digest == golden, f"world bytes changed at scale {scale}"
        parent = PARENT_S[scale]
        lines.append(row(
            f"build_world scale {scale} seed {SEED}",
            f"{parent:.2f} s before",
            f"{seconds:.2f} s  ({parent / seconds:.2f}x)",
        ))
    lines.append(row("world digests identical", "yes", "yes"))
    record(
        "world_build",
        "R4 — seeded world build time (draw kernel vs one numpy call per draw)",
        lines,
        context={"seed": SEED, "repeats": REPEATS, "cpus": os.cpu_count()},
        write=RECORD,
    )
