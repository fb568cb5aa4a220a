"""R3 — Batch scoring: one featurizer pass per chunk vs per-text scoring.

``PerspectiveModels.score_many`` featurizes its texts as one batch: the
chunk's texts are joined and tokenised in one pass, each distinct token
is stemmed and classified once, per-text class counts come from the
token masks, and the four attribute estimators run elementwise over
float64 columns.  This bench scores the unique comment and
news-baseline texts of a seeded scale-0.002 world both ways — through
the per-text oracle in ``tests/oracles/perspective.py`` and through a
fresh ``PerspectiveModels`` — asserts the scores identical bit for bit
and the batch path faster, and records the throughput of each.

It also records, with no timing assert, a fresh ``ScoreStore.prime``
over the world's whole comment and baseline stream (what the pipeline's
score stage runs), and the host time of each piece of the batch path
over the same prime-sized chunks: tokenize, class lookup, surface
features, estimators, jitter and rows.
"""

import os
import statistics
import time

import numpy as np

from benchmarks._report import RECORD, record, row
from repro.core.scoring import ScoreStore
from repro.nlp.tokenize import TOKEN_BREAK, text_chunks
from repro.perspective.lexicon import (
    _BREAK_MASK,
    _attack_flags,
    _bang_runs,
    _class_masks,
    extract_features_many,
)
from repro.perspective.models import (
    _SCORERS,
    ATTRIBUTES,
    PerspectiveModels,
    _clip01,
    _jitter,
)
from repro.platform import WorldConfig, build_world
from tests.oracles.perspective import score_comment

SCALE = 0.002
SEED = 7
CHUNK = 4096   # ScoreStore.prime's default chunk size
REPEATS = 5


def _world_stream() -> list[str]:
    """Every comment and news-baseline text, duplicates kept."""
    world = build_world(WorldConfig(scale=SCALE, seed=SEED))
    texts = [comment.text for comment in world.dissenter.comments]
    texts += [comment.text for comment in world.news.nytimes]
    texts += [comment.text for comment in world.news.dailymail]
    return texts


def _hex(rows):
    return [{name: value.hex() for name, value in r.items()} for r in rows]


def _pieces(texts: list[str]) -> dict[str, float]:
    """Host seconds of each piece of the batch path, over prime-sized
    chunks and a fresh token class table."""
    seconds = dict.fromkeys(
        ("tokenize", "class lookup", "surface features", "estimators",
         "jitter", "rows"),
        0.0,
    )
    table: dict[str, int] = {}
    lookup = {TOKEN_BREAK: _BREAK_MASK}
    for start in range(0, len(texts), CHUNK):
        batch = texts[start:start + CHUNK]
        t0 = time.perf_counter()
        chunks = text_chunks(batch)
        tokens = [chunk.tokens() for chunk in chunks]
        t1 = time.perf_counter()
        for chunk_tokens in tokens:
            _class_masks(chunk_tokens, table, lookup)
        t2 = time.perf_counter()
        for chunk in chunks:
            chunk.caps_ratios()
            _attack_flags(chunk)
            _bang_runs(chunk)
        t3 = time.perf_counter()
        features = extract_features_many(batch, table)
        t4 = time.perf_counter()
        estimates = [_SCORERS[name](features) for name in ATTRIBUTES]
        t5 = time.perf_counter()
        encoded = [text.encode("utf-8", "surrogatepass") for text in batch]
        jitters = [_jitter(encoded, name) for name in ATTRIBUTES]
        t6 = time.perf_counter()
        columns = [
            _clip01(estimate + jitter)
            for estimate, jitter in zip(estimates, jitters)
        ]
        [dict(zip(ATTRIBUTES, r)) for r in np.column_stack(columns).tolist()]
        t7 = time.perf_counter()
        seconds["tokenize"] += t1 - t0
        seconds["class lookup"] += t2 - t1
        seconds["surface features"] += t3 - t2
        seconds["estimators"] += t5 - t4
        seconds["jitter"] += t6 - t5
        seconds["rows"] += t7 - t6
    return seconds


def test_batch_scoring_matches_oracle_and_is_faster():
    stream = _world_stream()
    texts = list(dict.fromkeys(stream))

    t0 = time.perf_counter()
    expected = [score_comment(text) for text in texts]
    oracle_s = time.perf_counter() - t0

    models = PerspectiveModels()
    t0 = time.perf_counter()
    rows = models.score_many(texts)
    batch_s = time.perf_counter() - t0

    assert _hex(rows) == _hex(expected)

    prime_s = []
    for _ in range(REPEATS):
        store = ScoreStore()
        t0 = time.perf_counter()
        store.prime(stream)
        prime_s.append(time.perf_counter() - t0)
    assert store.counters.unique_texts == len(texts)
    pieces = [_pieces(texts) for _ in range(REPEATS)]

    ratio = oracle_s / batch_s
    prime = statistics.median(prime_s)
    lines = [
        row("unique texts scored", "-", f"{len(texts):,}"),
        row("per-text oracle", "-",
            f"{oracle_s:.3f} s  ({len(texts) / oracle_s:,.0f} texts/s)"),
        row("batch featurizer (score_many)", "> oracle",
            f"{batch_s:.3f} s  ({len(texts) / batch_s:,.0f} texts/s)"),
        row("speedup", "-", f"{ratio:.2f}x"),
        row("scores identical (float.hex)", "yes", "yes"),
        row(f"fresh ScoreStore.prime, {len(stream):,} texts", "-",
            f"{prime:.3f} s  ({store.counters.unique_texts:,} unique, "
            f"{store.counters.hits:,} hits; median of {REPEATS})"),
    ]
    for piece in pieces[0]:
        median = statistics.median(run[piece] for run in pieces)
        lines.append(row(f"  piece: {piece}", "-", f"{median * 1000:.1f} ms"))
    record(
        "scoring_batch",
        "R3 — batch featurizer vs per-text Perspective scoring",
        lines,
        context={
            "scale": SCALE,
            "seed": SEED,
            "chunk": CHUNK,
            "distinct_tokens": len(models._token_classes),
            "cpus": os.cpu_count(),
        },
        write=RECORD,
    )
    assert batch_s < oracle_s
