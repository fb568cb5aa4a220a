"""Rebuild ``references.json``: the benchmark's inputs and expected outputs.

Usage, from the root of a checkout::

    python3 perfbench/make_references.py --first 100 --last 400
    python3 perfbench/make_references.py --world-seeds 106,107,...

``--seed n`` of a run selects entry ``n % len`` of each list here.

``worlds``: the first ``WORLD_POOL`` seeds for ``workloads.world_config``
whose Dissenter corpus holds ``TARGET_COMMENTS`` comments within
``TOLERANCE``.  Per-user activity is Pareto(0.8)-tailed, so at this scale
corpus size varies several fold from seed to seed (quartiles 1.7k / 3.1k /
5.2k comments over seeds 100-259); keeping only worlds near the median
makes a run's work, and so its timings, comparable across seeds while
every world keeps the paper's calibration.  Each entry carries the sha256 of ``reproduce``'s report
payload.  ``crawl-durable`` needs no stored digest: it compares against
an uninterrupted crawl of the same world inside each run.

``serve``: store and load seeds with the sha256 of the load report's
``summary_text()``; see :func:`serve_entry` for how load seeds are kept.

Regenerate after a change that is meant to alter these outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL = 16
WORLD_POOL = 8
TARGET_COMMENTS = 3000
TOLERANCE = 0.04
HIT_BAND = (0.44, 0.46)


def vet(first: int, last: int) -> list[int]:
    """The first ``WORLD_POOL`` world seeds in ``[first, last)`` near the
    target."""
    import repro.platform.world as world_mod
    from workloads import world_config

    chosen = []
    for seed in range(first, last):
        world = world_mod.build_world(world_config(seed))
        comments = len(world.dissenter.comments)
        if abs(comments - TARGET_COMMENTS) <= TOLERANCE * TARGET_COMMENTS:
            chosen.append(seed)
            print(f"world seed {seed}: {comments} comments", file=sys.stderr)
            if len(chosen) == WORLD_POOL:
                return chosen
    raise SystemExit(f"only {len(chosen)} of {WORLD_POOL} worlds in range")


def world_entry(seed: int) -> dict:
    import repro.platform.world as world_mod
    from repro.core.pipeline import ReproductionPipeline
    from workloads import report_digest, world_config

    world = world_mod.build_world(world_config(seed))
    report = ReproductionPipeline(world=world).run()
    return {
        "world_seed": seed,
        "comments": len(world.dissenter.comments),
        "report_sha256": report_digest(report),
    }


def serve_entry(variant: int, tmp: Path) -> dict:
    """Store seed ``variant`` and the first load seed from ``1000 * variant``
    whose load never trips the rate limiter and whose cache hit ratio lies
    in ``HIT_BAND``.

    The generator's Pareto(0.8) user activity lets one simulated user
    carry a large share of some schedules, and that user's 429 retries
    can double the requests sent; URL popularity moves the hit ratio
    between 0.39 and 0.59 at this load size.  Either would make the
    seeds' timings incomparable.
    """
    from repro.core.scoring import ScoreStore
    from repro.perspective.models import PerspectiveModels
    from workloads import build_serve_store, sha256_text, serve_load

    store = build_serve_store(variant, tmp / f"store-{variant}")
    scores = ScoreStore(PerspectiveModels())
    scores.prime(store.texts())
    for load_seed in range(1000 * variant, 1000 * variant + 100):
        report, _ = serve_load(store, scores, load_seed)
        hit = report.cache_hit_rate
        if report.throttled_retries == 0 and HIT_BAND[0] <= hit <= HIT_BAND[1]:
            shutil.rmtree(tmp / f"store-{variant}")
            return {
                "store_seed": variant,
                "load_seed": load_seed,
                "cache_hit_ratio": round(hit, 4),
                "summary_sha256": sha256_text(report.summary_text()),
            }
    raise SystemExit(f"no load seed fits store seed {variant}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=100)
    parser.add_argument("--last", type=int, default=400)
    parser.add_argument("--world-seeds", default="",
                        help="comma-separated seeds; skips the vetting")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.world_seeds:
        seeds = [int(s) for s in args.world_seeds.split(",")]
    else:
        seeds = vet(args.first, args.last)
    worlds = []
    for seed in seeds:
        worlds.append(world_entry(seed))
        print(json.dumps(worlds[-1]), file=sys.stderr)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        serve = []
        for variant in range(POOL):
            serve.append(serve_entry(variant, tmp))
            print(json.dumps(serve[-1]), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = {"worlds": worlds, "serve": serve}
    (HERE / "references.json").write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
