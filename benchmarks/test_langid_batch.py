"""Language ID batch: one n-gram kernel per chunk vs per-text scoring.

``LanguageIdentifier.scores_many`` encodes each chunk of texts to code
points once, turns every character window into its n-gram's row with
whole-array table lookups, and sums each text's rows left to right,
position by position across texts.  This bench classifies the comments
of a seeded scale-0.002 world both ways — through the dict-per-language
oracle in ``tests/oracles/langid.py`` and through ``classify_many`` —
asserts identical labels and scores bit for bit, and records the
throughput of each.
"""

import os
import time

from benchmarks._report import RECORD, record, row
from repro.nlp.langid import LanguageIdentifier, default_corpora
from repro.platform import WorldConfig, build_world
from tests.oracles.langid import DictLanguageIdentifier

SCALE = 0.002
SEED = 7


def _oracle_label(scored: dict[str, float]) -> str:
    return min(scored, key=lambda lang: (-scored[lang], lang))


def test_batch_langid_matches_oracle_and_is_faster():
    world = build_world(WorldConfig(scale=SCALE, seed=SEED))
    texts = [comment.text for comment in world.dissenter.comments]
    corpora = default_corpora()
    oracle = DictLanguageIdentifier().fit(corpora)
    identifier = LanguageIdentifier().fit(corpora)

    t0 = time.perf_counter()
    expected = [oracle.scores(text) for text in texts]
    expected_labels = [
        "en" if not text.strip() else _oracle_label(scored)
        for text, scored in zip(texts, expected)
    ]
    oracle_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    labels = identifier.classify_many(texts)
    batch_s = time.perf_counter() - t0

    assert labels == expected_labels
    scores = identifier.scores_many(texts)
    assert [[value.hex() for value in r.tolist()] for r in scores] == [
        [value.hex() for value in scored.values()] for scored in expected
    ]
    ratio = oracle_s / batch_s
    lines = [
        row("comments classified", "-", f"{len(texts):,}"),
        row("per-text dict oracle", "-",
            f"{oracle_s:.3f} s  ({len(texts) / oracle_s:,.0f} texts/s)"),
        row("batch kernel (classify_many)", "> oracle",
            f"{batch_s:.3f} s  ({len(texts) / batch_s:,.0f} texts/s)"),
        row("speedup", "-", f"{ratio:.2f}x"),
        row("labels identical", "yes", "yes"),
        row("scores identical (float.hex)", "yes", "yes"),
    ]
    record(
        "langid_batch",
        "Language ID — batch n-gram kernel vs per-text dict oracle",
        lines,
        context={
            "scale": SCALE,
            "seed": SEED,
            "characters": sum(map(len, texts)),
            "cpus": os.cpu_count(),
        },
        write=RECORD,
    )
    assert batch_s < oracle_s
