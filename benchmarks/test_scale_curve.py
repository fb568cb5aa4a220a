"""Scale curve: the full pipeline at several scales, one fresh process each.

Every other bench and the perfbench workloads run at scale 0.002, where
a cost that grows faster than the corpus cannot show.  This bench runs
``build_world``, ``stage_crawl``, ``stage_score`` and ``stage_analyze``
on the seed-0 world (baseline cap 1000, the perfbench ``reproduce``
world at 0.002) in a new Python process per scale, so no scale inherits
another's heap, and records per row:

* host seconds per stage (the origins build is its own column);
* crawl µs per request, and crawl + score + analyze µs per comment;
* ``parse_comment_page`` calls against the distinct 200 discussion
  bodies the transport served;
* ``KeyedRateLimiter._evict`` calls and their cumulative host seconds;
* GC-tracked objects after the build;
* RSS after each stage and the process's peak RSS, in MB.

The counting hooks stay on in every row: each 200 discussion body is
hashed once by the hook, and each ``_evict`` call is timed.  The report
and corpus dump digests are asserted against the pinned values for
every scale that has one, and the parse count against the distinct
bodies; there is no timing assert.

A run prints its rows.  With ``SCALE_CURVE_LABEL`` set it also keeps
them in ``benchmarks/results/scale_curve.txt`` under that label,
replacing only the rows with the same label and scale, so the ledger
holds the rows of earlier code next to the new ones.
``SCALE_CURVE_SCALES`` is a comma-separated list of scales (default
``0.002``)::

    SCALE_CURVE_LABEL=my-change SCALE_CURVE_SCALES=0.002,0.01,0.04 \\
        PYTHONPATH=src python -m pytest -q -s benchmarks/test_scale_curve.py

One process per scale can also be run on its own; it prints its row as
one JSON line::

    PYTHONPATH=src python -m benchmarks.test_scale_curve 0.04
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks._report import record

SEED = 0
BASELINE_CAP = 1000
REPO = Path(__file__).resolve().parent.parent
LEDGER = REPO / "benchmarks" / "results" / "scale_curve.txt"

#: scale -> (sha256 of the report payload, sha256 of the corpus dump) of
#: the seed-0 world with baseline cap 1000, first measured at 9590f71.
DIGESTS = {
    0.002: ("b9d8b963e40039e20b43c404fa1ea54cc7bb5e4cb4da51fe613b61be9b1cf4c2",
            "4cfd1ace205babc226938e25d0fa9f9b6cc3d8917f64eb59a5b5b4ff9f8026a2"),
    0.01: ("eecf79520856da6d1abaa03e0505ff4fc1d14efb5169d5a958c4f8cdf2637452",
           "f85f1885b1ce90eaf4ea732ac0d5d071e5e552dc4379002091394f00afc5413c"),
    0.04: ("fd5a94428be4ae7774b8bb37dfeab5b19ade4f1b8764dd4b93121b57f06cff01",
           "63ff834671ec013b1dcdc8bda6b9fa49260b500412d7e8de6ec176979ef5fca8"),
    0.1: ("3a94aeed1ed9c26db5cc08f7ca34f97334075f3fd00bab9f96a8ef8e595d9356",
          "5ce51d6684192f638ba86067ed0da9cf5a1a5ad069aaeb540b5f51a41fbae420"),
}

#: (row key, column title, cell format)
COLUMNS = (
    ("label", "label", "{}"),
    ("scale", "scale", "{}"),
    ("build_s", "build s", "{:.2f}"),
    ("origins_s", "origins s", "{:.2f}"),
    ("crawl_s", "crawl s", "{:.2f}"),
    ("score_s", "score s", "{:.2f}"),
    ("analyze_s", "analyze s", "{:.2f}"),
    ("requests", "requests", "{:,}"),
    ("comments", "comments", "{:,}"),
    ("crawl_us_per_request", "crawl µs/req", "{:.1f}"),
    ("us_per_comment", "µs/comment", "{:.0f}"),
    ("parses", "parses", "{:,}"),
    ("distinct_bodies", "distinct 200 bodies", "{:,}"),
    ("evict_calls", "_evict calls", "{:,}"),
    ("evict_s", "_evict s", "{:.3f}"),
    ("gc_objects", "GC objects after build", "{:,}"),
    ("rss_build_mb", "RSS build", "{:.0f}"),
    ("rss_crawl_mb", "RSS crawl", "{:.0f}"),
    ("rss_score_mb", "RSS score", "{:.0f}"),
    ("rss_analyze_mb", "RSS analyze", "{:.0f}"),
    ("peak_rss_mb", "peak RSS", "{:.0f}"),
)

TITLE = "Scale curve — full pipeline per scale, one fresh process each"
NOTES = """\
Seed 0, baseline cap 1000, inline corpus (no store_dir), one connection.
Host seconds per stage; RSS and peak RSS in MB from /proc/self/status
(VmRSS, VmHWM).  "parses" counts parse_comment_page calls; "distinct 200
bodies" counts the distinct 200 discussion bodies the transport served.
Rows are labelled by the code they measured (SCALE_CURVE_LABEL).
"""


def _rss_mb(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{field} not in /proc/self/status")


def measure(scale: float) -> dict:
    """One scale's row, measured in this process."""
    from benchmarks._counting import count_discussion_parses
    from repro.core.pipeline import ReproductionPipeline
    from repro.core.report import report_to_payload
    from repro.crawler.checkpoint import dumps_result
    from repro.net.ratelimit import KeyedRateLimiter
    from repro.platform.config import WorldConfig
    from repro.platform.world import build_world

    config = WorldConfig(scale=scale, seed=SEED, baseline_sample_cap=BASELINE_CAP)
    row: dict = {"scale": scale}
    clock = time.perf_counter

    t0 = clock()
    world = build_world(config)
    row["build_s"] = clock() - t0
    row["gc_objects"] = len(gc.get_objects())
    row["rss_build_mb"] = _rss_mb("VmRSS")
    t0 = clock()
    pipeline = ReproductionPipeline(config, world=world)
    row["origins_s"] = clock() - t0

    evicts = [0, 0.0]
    real_evict = KeyedRateLimiter._evict

    def timed_evict(limiter, protect):
        t = clock()
        real_evict(limiter, protect)
        evicts[0] += 1
        evicts[1] += clock() - t

    KeyedRateLimiter._evict = timed_evict
    try:
        with count_discussion_parses() as count:
            t0 = clock()
            artifacts = pipeline.stage_crawl()
            row["crawl_s"] = clock() - t0
    finally:
        KeyedRateLimiter._evict = real_evict
    row["rss_crawl_mb"] = _rss_mb("VmRSS")

    t0 = clock()
    pipeline.stage_score(artifacts)
    row["score_s"] = clock() - t0
    row["rss_score_mb"] = _rss_mb("VmRSS")
    t0 = clock()
    report = pipeline.stage_analyze(artifacts)
    row["analyze_s"] = clock() - t0
    row["rss_analyze_mb"] = _rss_mb("VmRSS")
    row["peak_rss_mb"] = _rss_mb("VmHWM")

    requests = pipeline.client.stats.requests
    comments = len(artifacts.corpus.comments)
    row["requests"] = requests
    row["comments"] = comments
    row["crawl_us_per_request"] = row["crawl_s"] / requests * 1e6
    row["us_per_comment"] = (
        (row["crawl_s"] + row["score_s"] + row["analyze_s"]) / comments * 1e6
    )
    row["parses"] = count.parses
    row["distinct_bodies"] = count.distinct
    row["evict_calls"] = evicts[0]
    row["evict_s"] = evicts[1]
    payload = json.dumps(report_to_payload(report), sort_keys=True)
    row["report_sha256"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    dump = dumps_result(artifacts.corpus)
    row["dump_sha256"] = hashlib.sha256(dump.encode("utf-8")).hexdigest()
    return row


def _run_fresh(scale: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_scale_curve", repr(scale)],
        cwd=REPO, env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _cells(row: dict) -> str:
    return "| " + " | ".join(fmt.format(row[key]) for key, _, fmt in COLUMNS) + " |"


def _ledger_key(line: str) -> tuple[str, float]:
    label, scale = line.split("|")[1:3]
    return label.strip(), float(scale)


def _write_ledger(rows: list[dict]) -> None:
    """Put ``rows`` in the ledger in place of its rows of the same label and scale."""
    old = LEDGER.read_text(encoding="utf-8").splitlines() if LEDGER.exists() else []
    table = {
        _ledger_key(line): line for line in old
        if line.startswith("| ") and not line.startswith("| label ")
    }
    table.update((_ledger_key(line), line) for line in map(_cells, rows))
    labels = list(dict.fromkeys(label for label, _ in table))
    order = sorted(table, key=lambda key: (key[1], labels.index(key[0])))
    record("scale_curve", TITLE, [
        *NOTES.splitlines(),
        "",
        "| " + " | ".join(title for _, title, _ in COLUMNS) + " |",
        "|" + "---|" * len(COLUMNS),
        *(table[key] for key in order),
    ])


def test_scale_curve():
    scales = [
        float(s) for s in
        os.environ.get("SCALE_CURVE_SCALES", "0.002").split(",") if s.strip()
    ]
    label = os.environ.get("SCALE_CURVE_LABEL")
    rows = []
    for scale in scales:
        row = _run_fresh(scale)
        row["label"] = label or "this run"
        rows.append(row)
        print(_cells(row), row["report_sha256"], row["dump_sha256"])
        # The crawl-wide parse memo parses each distinct page once.
        assert row["parses"] == row["distinct_bodies"], f"parses at {scale}"
        if scale in DIGESTS:
            report_sha, dump_sha = DIGESTS[scale]
            assert row["report_sha256"] == report_sha, f"report at {scale}"
            assert row["dump_sha256"] == dump_sha, f"dump at {scale}"
    if label:
        _write_ledger(rows)


if __name__ == "__main__":
    print(json.dumps(measure(float(sys.argv[1]))))
