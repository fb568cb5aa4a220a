"""Crawl parse memo: each distinct discussion page is parsed once per crawl.

``stage_crawl`` shares one digest-keyed
:class:`~repro.crawler.parsing.PageParseMemo` between the baseline
comment-page phase, the re-request loop and both shadow passes.  Most
shadow re-fetches return bytes the baseline already parsed, so they skip
the regex parse.  This bench crawls seeded worlds at scales 0.002 and
0.01 (and 0.04 with ``CRAWL_PARSE_MEMO_LARGE=1``) twice each: with the
memo, and with the never-hit oracle in ``tests/oracles/parse_memo.py``.
It asserts that the dump and every spilled segment, column and manifest
file are byte-identical between the two, that both equal the digests
pinned from the body-keyed memo the digest key replaced, and that the
memo parses each distinct page once.  It records the parse counts, the
memo's hit share and both walls.  There is no timing assert.
"""

import hashlib
import os
import time

import pytest

import repro.core.pipeline as pipeline_mod
from benchmarks._counting import count_discussion_parses
from benchmarks._report import record, row
from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import dumps_result
from repro.crawler.parsing import PageParseMemo
from repro.platform.config import WorldConfig
from repro.platform.world import build_world
from tests.oracles.parse_memo import NeverHitParseMemo

SCALES = (0.002, 0.01) + ((0.04,) if os.environ.get("CRAWL_PARSE_MEMO_LARGE") else ())
SEED = 0

#: scale -> (sha256 of the dump, digest of the store tree), from the
#: body-keyed memo at 9590f71.
DIGESTS = {
    0.002: ("4cfd1ace205babc226938e25d0fa9f9b6cc3d8917f64eb59a5b5b4ff9f8026a2",
            "8dd9e881e484a363a16cfd142aeaff576281f3137c27f8c165a3101d2e1a2ee3"),
    0.01: ("f85f1885b1ce90eaf4ea732ac0d5d071e5e552dc4379002091394f00afc5413c",
           "9c2073f3ea57b94faf1810eb65e3682e11c69266781649a8dacec837a5e52786"),
    0.04: ("63ff834671ec013b1dcdc8bda6b9fa49260b500412d7e8de6ec176979ef5fca8",
           "99931e63f49084090860f5d81a43a96e638af883ebe74951ce29c7f2c507d74f"),
}


def _tree(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _tree_digest(files):
    """sha256 over each file's relative path and the sha256 of its bytes."""
    digest = hashlib.sha256()
    for path, data in files.items():
        digest.update(str(path).encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def _crawl(config, world, store_dir, memo_cls):
    """One spilled stage_crawl: (dump, store files, parses, distinct, wall).

    ``distinct`` counts the distinct 200 discussion bodies served.
    """
    pipeline = ReproductionPipeline(
        config, world=world, store_dir=str(store_dir), segment_records=256
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_mod, "PageParseMemo", memo_cls)
        with count_discussion_parses() as count:
            t0 = time.perf_counter()
            artifacts = pipeline.stage_crawl()
            wall = time.perf_counter() - t0
    return (dumps_result(artifacts.corpus), _tree(store_dir), count.parses,
            count.distinct, wall)


def test_parse_memo_counts_and_byte_identity(tmp_path):
    lines = []
    for scale in SCALES:
        config = WorldConfig(scale=scale, seed=SEED)
        world = build_world(config)
        dump, files, parses, distinct, wall = _crawl(
            config, world, tmp_path / f"memo-{scale}", PageParseMemo
        )
        oracle_dump, oracle_files, lookups, _, oracle_wall = _crawl(
            config, world, tmp_path / f"oracle-{scale}", NeverHitParseMemo
        )
        assert dump == oracle_dump
        assert files == oracle_files
        assert (hashlib.sha256(dump.encode("utf-8")).hexdigest(),
                _tree_digest(files)) == DIGESTS[scale]
        assert parses == distinct < lookups
        hits = lookups - parses
        lines += [
            row(f"scale {scale}: 200 discussion fetches", "-", f"{lookups:,}"),
            row(f"scale {scale}: parses, never-hit memo", "-", f"{lookups:,}"),
            row(f"scale {scale}: distinct 200 bodies", "-", f"{distinct:,}"),
            row(f"scale {scale}: parses, crawl-wide memo", "= distinct",
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
