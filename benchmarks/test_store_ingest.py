"""Store ingest: host µs per ``CorpusStore.add_*`` and seconds per seal.

Every crawled record passes through ``CorpusStore.add_user``,
``add_url`` or ``add_comment`` exactly once: the record is upserted,
projected into the column buffers and encoded as one JSONL line, and
every ``segment_records`` lines the tail is sealed (segment file,
``.npz`` column file, manifest).  This bench builds the store shape of
perfbench's ``serve-powerlaw`` workload (20k users, 10k URLs, 200k
power-law comments, 65,536-record segments, spilled to disk) from the
same seeded record stream as ``perfbench/workloads.py``
``build_serve_store``, and times each phase on its own:

* ``add_user``, ``add_url``, ``add_comment``: host µs per record, with
  the seals that fall inside the loop taken out;
* seal: host seconds per sealed segment (``_seal_segment``: JSONL
  write, column projection drain, ``.npz`` write, manifest);
* RSS: the growth of this process's resident set from before the
  records are built to the sealed store (records and store together,
  as the store holds every record it was given).

The records are built before the clock starts, so perfbench's own
record construction is not in any timing.  The store's tree digest
(every file's path and bytes) must equal the pinned ``GOLDEN`` digest:
an ingest that got faster by writing other bytes fails here.  There is
no timing assert; the host's speed drifts by tens of percent, so each
timing is the best of ``ROUNDS`` rounds.

``STORE_INGEST_SHRINK=10`` divides every count and the segment size by
ten (the CI smoke size, with its own pinned digest); a shrunk run prints
its rows and leaves ``benchmarks/results/store_ingest.txt`` alone.

``BEFORE`` holds this bench's figures for the code before the user
codec, URL split, single-encode segment write and slotted records
(commit f48f79d, 2-CPU x86-64 VM, Python 3.11): the median of three
runs, interleaved with three runs of the code after them.  Their
medians were 9.75 µs per user, 12.46 µs per URL, 5.71 µs per comment,
0.096 s per seal and 155.9 MB.
"""

import gc
import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks._report import record
from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
from repro.store import CorpusStore

SHRINK = int(os.environ.get("STORE_INGEST_SHRINK", "1"))
USERS = 20_000 // SHRINK
URLS = 10_000 // SHRINK
COMMENTS = 200_000 // SHRINK
SEGMENT_RECORDS = 65_536 // SHRINK
TEXTS = 2_000
BASE_EPOCH = 1_550_000_000
SEED = 0
ROUNDS = 5

#: shrink -> sha256 over the sealed store directory (``_tree_digest``).
#: At shrink 1 this is perfbench's ``build_serve_store(0, ...)`` tree.
GOLDEN = {
    1: "21f891b82a1ecdf435c9eaf1c578e8d3743f1610c9e56d2a36e3a87464e84e05",
    10: "c7aef890b193cb192f3bbcb3612be2419b998e421af57d8e02b5616d5b14d7c5",
}

#: Figures at f48f79d (see the module docstring).
BEFORE = {
    "add_user_us": 16.07,
    "add_url_us": 25.40,
    "add_comment_us": 6.52,
    "seal_s": 0.160,
    "rss_mb": 179.7,
}


def _records():
    """The ``build_serve_store`` record stream, in its RNG draw order."""
    rng = np.random.default_rng([SEED, 20_200])
    users = [
        CrawledUser(
            username=f"user-{n:06d}",
            author_id=f"{n:08x}beef",
            display_name=f"User {n}",
            permissions={"comment": True, "vote": n % 3 != 0, "pro": False},
            view_filters={"nsfw": n % 5 == 0, "offensive": n % 11 == 0},
        )
        for n in range(USERS)
    ]
    urls = [
        CrawledUrl(
            commenturl_id=f"{n:08x}feed",
            url=f"https://example-{n % 500:03d}.com/page/{n}",
            title=f"Page {n}",
            description="",
            upvotes=int(rng.integers(0, 93)),
            downvotes=int(rng.integers(0, 41)),
        )
        for n in range(URLS)
    ]

    def power_law_picks(alpha, floor, n_items):
        weights = rng.pareto(alpha, n_items) + floor
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        picks = np.searchsorted(cdf, rng.random(COMMENTS), side="right")
        return np.minimum(picks, n_items - 1)

    authors = power_law_picks(0.8, 0.08, USERS).tolist()
    targets = power_law_picks(1.1, 0.2, URLS).tolist()
    texts = rng.integers(0, TEXTS, COMMENTS).tolist()
    comments = [
        CrawledComment(
            comment_id=f"{n:09x}cafe",
            author_id=f"{authors[n]:08x}beef",
            commenturl_id=f"{targets[n]:08x}feed",
            text=f"comment body {texts[n]}",
            parent_comment_id=None,
            created_at_epoch=BASE_EPOCH + n,
            shadow_label=None,
        )
        for n in range(COMMENTS)
    ]
    return users, urls, comments


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _ingest(store_dir: Path) -> dict:
    """One timed ingest into a fresh store; returns its figures."""
    gc.collect()
    rss_before = _rss_mb()
    users, urls, comments = _records()
    store = CorpusStore(store_dir=store_dir, segment_records=SEGMENT_RECORDS)
    seals: list[float] = []
    seal_segment = store._seal_segment

    def timed_seal():
        start = time.perf_counter()
        seal_segment()
        seals.append(time.perf_counter() - start)

    store._seal_segment = timed_seal
    figures = {}
    for key, add, batch in (("add_user_us", store.add_user, users),
                            ("add_url_us", store.add_url, urls),
                            ("add_comment_us", store.add_comment, comments)):
        sealed_before = sum(seals)
        start = time.perf_counter()
        for item in batch:
            add(item)
        loop = time.perf_counter() - start - (sum(seals) - sealed_before)
        figures[key] = loop / len(batch) * 1e6
    store.seal()
    figures["seal_s"] = sum(seals) / len(seals)
    figures["segments"] = len(seals)
    del users, urls, comments
    gc.collect()
    figures["rss_mb"] = _rss_mb() - rss_before
    figures["digest"] = _tree_digest(store_dir)
    return figures


def test_store_ingest_per_record_costs():
    scratch = Path(tempfile.mkdtemp(prefix="store-ingest-"))
    # The projector imports the URL helpers at the first URL it sees;
    # keep that one-off import out of the first round's time and RSS.
    CorpusStore().add_url(CrawledUrl("0", "https://example.com/", "", "", 0, 0))
    try:
        rounds = [_ingest(scratch / f"round-{n}") for n in range(ROUNDS)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    digests = {figures["digest"] for figures in rounds}
    assert digests == {GOLDEN[SHRINK]}, f"store bytes changed: {digests}"
    best = {key: min(figures[key] for figures in rounds)
            for key in ("add_user_us", "add_url_us", "add_comment_us",
                        "seal_s")}
    # Later rounds reuse the heap the first one grew, so only the first
    # round's RSS growth is the ingest's.
    best["rss_mb"] = rounds[0]["rss_mb"]

    def line(label, key, unit, fmt):
        after = best[key]
        text = f"{label:<28s} after={after:{fmt}} {unit}"
        if SHRINK == 1:
            before = BEFORE[key]
            text = (f"{label:<28s} before={before:{fmt}} {unit}  "
                    f"after={after:{fmt}} {unit}  ({before / after:.2f}x)")
        return text

    record(
        "store_ingest",
        "Store ingest — host cost per CorpusStore.add_* and per seal",
        [
            line("add_user (per user)", "add_user_us", "us", "7.2f"),
            line("add_url (per URL)", "add_url_us", "us", "7.2f"),
            line("add_comment (per comment)", "add_comment_us", "us", "7.2f"),
            line("seal (per segment)", "seal_s", "s ", "7.3f"),
            line("RSS growth (records+store)", "rss_mb", "MB", "7.1f"),
            f"{'store tree digest':<28s} {GOLDEN[SHRINK][:16]}… (identical)",
            "one run; host speed drifts between runs, so compare against"
            " the interleaved medians in the bench's docstring",
        ],
        context={"users": USERS, "urls": URLS, "comments": COMMENTS,
                 "segment_records": SEGMENT_RECORDS,
                 "segments_sealed": rounds[0]["segments"],
                 "rounds": ROUNDS, "cpus": os.cpu_count()},
        write=SHRINK == 1,
    )
