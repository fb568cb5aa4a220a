"""Crawl parse memo: each distinct discussion page is parsed once per crawl.

``stage_crawl`` shares one body-keyed
:class:`~repro.crawler.parsing.PageParseMemo` between the baseline
comment-page phase, the re-request loop and both shadow passes.  Most
shadow re-fetches return bytes the baseline already parsed, so they skip
the regex parse.  This bench crawls seeded worlds at scales 0.002 and
0.01 twice each: with the memo, and with the never-hit oracle in
``tests/oracles/parse_memo.py``.  It asserts that the dump and every
spilled segment and manifest file are byte-identical, and records the
parse counts, the memo's hit share and both walls.  There is no timing
assert.
"""

import os
import time

import pytest

import repro.core.pipeline as pipeline_mod
import repro.crawler.parsing as parsing
from benchmarks._report import record, row
from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import dumps_result
from repro.crawler.parsing import PageParseMemo
from repro.platform.config import WorldConfig
from repro.platform.world import build_world
from tests.oracles.parse_memo import NeverHitParseMemo

SCALES = (0.002, 0.01)
SEED = 0


def _tree(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _crawl(config, world, store_dir, memo_cls):
    """One spilled stage_crawl: (dump, store files, parses, wall)."""
    parses = [0]
    real_parse = parsing.parse_comment_page

    def counted_parse(text):
        parses[0] += 1
        return real_parse(text)

    pipeline = ReproductionPipeline(
        config, world=world, store_dir=str(store_dir), segment_records=256
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_mod, "PageParseMemo", memo_cls)
        patch.setattr(parsing, "parse_comment_page", counted_parse)
        t0 = time.perf_counter()
        artifacts = pipeline.stage_crawl()
        wall = time.perf_counter() - t0
    return dumps_result(artifacts.corpus), _tree(store_dir), parses[0], wall


def test_parse_memo_counts_and_byte_identity(tmp_path):
    lines = []
    for scale in SCALES:
        config = WorldConfig(scale=scale, seed=SEED)
        world = build_world(config)
        dump, files, parses, wall = _crawl(
            config, world, tmp_path / f"memo-{scale}", PageParseMemo
        )
        oracle_dump, oracle_files, lookups, oracle_wall = _crawl(
            config, world, tmp_path / f"oracle-{scale}", NeverHitParseMemo
        )
        assert dump == oracle_dump
        assert files == oracle_files
        assert parses < lookups
        hits = lookups - parses
        lines += [
            row(f"scale {scale}: 200 discussion fetches", "-", f"{lookups:,}"),
            row(f"scale {scale}: parses, never-hit memo", "-", f"{lookups:,}"),
            row(f"scale {scale}: parses, crawl-wide memo", "< never-hit",
                f"{parses:,}"),
            row(f"scale {scale}: memo hit share", "-",
                f"{hits / lookups:.1%} ({hits:,} hits)"),
            row(f"scale {scale}: stage_crawl wall, never-hit", "-",
                f"{oracle_wall:.2f} s"),
            row(f"scale {scale}: stage_crawl wall, memo", "-",
                f"{wall:.2f} s"),
            row(f"scale {scale}: dump, segments, manifest identical", "yes",
                "yes"),
        ]
    record(
        "crawl_parse_memo",
        "Crawl parse memo — one parse per distinct discussion page",
        lines,
        context={"seed": SEED, "segment_records": 256, "cpus": os.cpu_count()},
    )
