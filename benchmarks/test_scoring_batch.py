"""R3 — Batch scoring: one featurizer pass per chunk vs per-text scoring.

``PerspectiveModels.score_many`` featurizes its uncached texts as one
batch: each distinct token is stemmed and classified once, per-text
class counts come from the token masks, and the four attribute
estimators run elementwise over float64 columns.  This bench scores the
unique comment and news-baseline texts of a seeded scale-0.002 world
both ways — through the per-text oracle in ``tests/oracles/perspective.py``
and through a fresh ``PerspectiveModels`` — asserts the scores identical
bit for bit, and records the throughput of each.
"""

import os
import time

from benchmarks._report import record, row
from repro.perspective.models import PerspectiveModels
from repro.platform import WorldConfig, build_world
from tests.oracles.perspective import score_comment

SCALE = 0.002
SEED = 7


def _world_texts() -> list[str]:
    world = build_world(WorldConfig(scale=SCALE, seed=SEED))
    texts = [comment.text for comment in world.dissenter.comments]
    texts += [comment.text for comment in world.news.nytimes]
    texts += [comment.text for comment in world.news.dailymail]
    return list(dict.fromkeys(texts))


def _hex(rows):
    return [{name: value.hex() for name, value in r.items()} for r in rows]


def test_batch_scoring_matches_oracle_and_is_faster():
    texts = _world_texts()

    t0 = time.perf_counter()
    expected = [score_comment(text) for text in texts]
    oracle_s = time.perf_counter() - t0

    models = PerspectiveModels()
    t0 = time.perf_counter()
    rows = models.score_many(texts)
    batch_s = time.perf_counter() - t0

    assert _hex(rows) == _hex(expected)
    ratio = oracle_s / batch_s
    lines = [
        row("unique texts scored", "-", f"{len(texts):,}"),
        row("per-text oracle", "-",
            f"{oracle_s:.3f} s  ({len(texts) / oracle_s:,.0f} texts/s)"),
        row("batch featurizer (score_many)", "> oracle",
            f"{batch_s:.3f} s  ({len(texts) / batch_s:,.0f} texts/s)"),
        row("speedup", "-", f"{ratio:.2f}x"),
        row("scores identical (float.hex)", "yes", "yes"),
    ]
    record(
        "scoring_batch",
        "R3 — batch featurizer vs per-text Perspective scoring",
        lines,
        context={
            "scale": SCALE,
            "seed": SEED,
            "distinct_tokens": len(models._token_classes),
            "cpus": os.cpu_count(),
        },
    )
    assert batch_s < oracle_s
