"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload turns ``--seed`` into its inputs, builds them in
:meth:`setup` (timed as ``setup_s``), fixes its correctness reference in
:meth:`prepare`, and then runs :meth:`iterate` as often as the run's
seconds allow.  Every iteration checks its own output against the
reference.  All of them run in one process: serial scoring, inline
parsing, no threads; ``connections`` are virtual lanes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: World of ``reproduce`` and ``crawl-durable``: scale, and the cap on
#: each news/Reddit baseline sample (the default 4000 would make scoring
#: the fixed baselines two thirds of a run).  Small enough that a run of
#: well under a minute holds three set-ups and ten or so iterations: the
#: host's speed swings by a quarter for seconds at a time, and only many
#: short iterations give a run some undisturbed ones.
#: ``references.json`` lists the world seeds for this configuration; see
#: ``make_references.py``.
WORLD_SCALE = 0.002
BASELINE_CAP = 1000


def world_config(seed: int):
    from repro.platform.config import WorldConfig

    return WorldConfig(scale=WORLD_SCALE, seed=seed,
                       baseline_sample_cap=BASELINE_CAP)

#: ``crawl-durable``: virtual connection lanes, checkpoint cadence, where
#: the single kill lands (a share of the uninterrupted crawl's requests),
#: and records per spilled segment (small enough that a world of this
#: scale seals about seven segments).
CONNECTIONS = 4
CHECKPOINT_PAGES = 100
KILL_SHARE = 0.5
SEGMENT_RECORDS = 512

#: ``serve-powerlaw``: the synthetic store (the shape of
#: ``benchmarks/test_serve_load.py``) and the load per iteration.
SERVE_USERS = 20_000
SERVE_URLS = 10_000
SERVE_COMMENTS = 200_000
SERVE_TEXTS = 2_000
SERVE_SEGMENT_RECORDS = 65_536
SERVE_SIM_USERS = 1_000_000
SERVE_REQUESTS = 20_000
BASE_EPOCH = 1_550_000_000


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(root: Path, skip_suffix: str = ".state.json") -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name.endswith(skip_suffix):
            continue
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def report_digest(report) -> str:
    """sha256 of the report's JSON payload (extras excluded)."""
    from repro.core.report import report_to_payload

    return sha256_text(json.dumps(report_to_payload(report), sort_keys=True))


@dataclass
class Iteration:
    """What one measured iteration did."""

    wall_s: float               # the whole iteration, on the run's clock
    request_s: float            # the part that issued requests (req_per_s)
    attempted: int
    failed: int
    correct: bool
    counters: dict = field(default_factory=dict)
    problem: str = ""


def _client_counters(pipelines) -> dict:
    out = {"net.requests": 0, "net.retries": 0, "net.timeouts": 0,
           "net.bytes_received": 0}
    for pipeline in pipelines:
        stats = pipeline.client.stats
        out["net.requests"] += stats.requests
        out["net.retries"] += stats.retries
        out["net.timeouts"] += stats.timeouts
        out["net.bytes_received"] += stats.bytes_received
    return out


def _store_counters(corpus) -> dict:
    return {
        "store.segments_sealed": len(corpus.segment_refs),
        "store.columns_projected": corpus.column_counters["projected"],
        "store.column_fallbacks": corpus.column_counters["fallbacks"],
        "store.index_builds": corpus.index_builds,
    }


class Workload:
    """One named workload: ``setup``, ``prepare``, then ``iterate`` often.

    ``--seed n`` picks entry ``n % len`` of the workload's list in
    ``references.json``; ``tmp`` is a scratch directory inside the
    checkout that the runner removes afterwards.
    """

    name = ""
    references_key = ""
    tag_requests = False

    def __init__(self, seed: int, references: dict, tmp: Path) -> None:
        entries = references[self.references_key]
        self.entry = entries[seed % len(entries)]
        self.tmp = tmp

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def iterate(self, recorder) -> Iteration:
        raise NotImplementedError


class _WorldWorkload(Workload):
    """Shared set-up of the two crawl workloads: one world per seed."""

    references_key = "worlds"
    world = None

    def setup(self) -> None:
        import repro.platform.world as world_mod

        self.world = None   # drop the previous build before timing the next
        self.world = world_mod.build_world(
            world_config(self.entry["world_seed"])
        )


class Reproduce(_WorldWorkload):
    """``ReproductionPipeline(world=...).run()``: crawl, score, analyze."""

    name = "reproduce"

    def prepare(self) -> None:
        self.expected = self.entry["report_sha256"]

    def iterate(self, recorder) -> Iteration:
        from repro.core.pipeline import ReproductionPipeline

        start = recorder.clock()
        pipeline = ReproductionPipeline(world=self.world)
        report = pipeline.run()
        wall = recorder.clock() - start
        digest = report_digest(report)
        counters = {
            **_client_counters([pipeline]),
            **_store_counters(report.corpus),
            "score.unique_texts": pipeline.store.counters.unique_texts,
            "score.hits": pipeline.store.counters.hits,
        }
        return Iteration(
            wall_s=wall,
            request_s=recorder.crawl_s,
            attempted=pipeline.origins.transport.requests_attempted,
            failed=recorder.request_failures + recorder.pages_failed(),
            correct=digest == self.expected,
            counters=counters,
            problem="" if digest == self.expected
            else f"report digest {digest[:16]} != {self.expected[:16]}",
        )


class CrawlDurable(_WorldWorkload):
    """``stage_crawl`` with faults and checkpoints, killed once and resumed."""

    name = "crawl-durable"

    def _pipeline(self, store_dir: Path):
        from repro.core.pipeline import ReproductionPipeline

        return ReproductionPipeline(
            world=self.world, with_faults=True, connections=CONNECTIONS,
            store_dir=str(store_dir), segment_records=SEGMENT_RECORDS,
        )

    @staticmethod
    def _finish(artifacts, run_dir: Path) -> str:
        from repro.crawler.checkpoint import dump_result

        dump_result(artifacts.corpus, run_dir / "dump.json")
        return tree_digest(run_dir)

    def prepare(self) -> None:
        """The reference: the same crawl, uninterrupted and uncheckpointed."""
        run_dir = self.tmp / "reference"
        run_dir.mkdir()
        pipeline = self._pipeline(run_dir / "store")
        artifacts = pipeline.stage_crawl()
        self.expected = self._finish(artifacts, run_dir)
        self.kill_at = int(
            pipeline.origins.transport.requests_attempted * KILL_SHARE
        )
        shutil.rmtree(run_dir)

    def iterate(self, recorder) -> Iteration:
        import repro.crawler.runtime as runtime
        from repro.net.errors import CrawlKilled

        run_dir = self.tmp / "run"
        state = run_dir / "crawl.state.json"
        run_dir.mkdir()
        start = recorder.clock()
        killed = self._pipeline(run_dir / "store")
        killed.origins.transport.kill_after(self.kill_at)
        fired = False
        try:
            killed.stage_crawl(
                checkpointer=runtime.Checkpointer(state, CHECKPOINT_PAGES)
            )
        except CrawlKilled:
            fired = True
        resumed = self._pipeline(run_dir / "store")
        checkpointer = runtime.Checkpointer(state, CHECKPOINT_PAGES)
        artifacts = resumed.stage_crawl(
            checkpointer=checkpointer, resume=runtime.load_state(state)
        )
        wall = recorder.clock() - start
        digest = self._finish(artifacts, run_dir)
        shutil.rmtree(run_dir)
        problem = ""
        if not fired:
            problem = f"kill after {self.kill_at} requests never fired"
        elif digest != self.expected:
            problem = f"tree digest {digest[:16]} != {self.expected[:16]}"
        counters = {
            **_client_counters([killed, resumed]),
            **_store_counters(artifacts.corpus),
        }
        return Iteration(
            wall_s=wall,
            request_s=wall,
            attempted=(killed.origins.transport.requests_attempted
                       + resumed.origins.transport.requests_attempted),
            failed=recorder.request_failures + recorder.pages_failed(),
            correct=not problem,
            counters=counters,
            problem=problem,
        )


def build_serve_store(seed: int, store_dir: Path):
    """A seeded synthetic corpus: spilled, column-projected and sealed.

    Comment authors follow the load generator's power-law user activity
    and comment URLs its power-law URL popularity, so threads range from
    empty to thousands of comments.
    """
    from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
    from repro.store import CorpusStore

    rng = np.random.default_rng([seed, 20_200])
    store = CorpusStore(store_dir=store_dir,
                        segment_records=SERVE_SEGMENT_RECORDS)
    for n in range(SERVE_USERS):
        store.add_user(CrawledUser(
            username=f"user-{n:06d}",
            author_id=f"{n:08x}beef",
            display_name=f"User {n}",
            permissions={"comment": True, "vote": n % 3 != 0, "pro": False},
            view_filters={"nsfw": n % 5 == 0, "offensive": n % 11 == 0},
        ))
    for n in range(SERVE_URLS):
        store.add_url(CrawledUrl(
            commenturl_id=f"{n:08x}feed",
            url=f"https://example-{n % 500:03d}.com/page/{n}",
            title=f"Page {n}",
            description="",
            upvotes=int(rng.integers(0, 93)),
            downvotes=int(rng.integers(0, 41)),
        ))

    def power_law_picks(alpha: float, floor: float, n_items: int):
        weights = rng.pareto(alpha, n_items) + floor
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        picks = np.searchsorted(cdf, rng.random(SERVE_COMMENTS), side="right")
        return np.minimum(picks, n_items - 1)

    authors = power_law_picks(0.8, 0.08, SERVE_USERS)
    urls = power_law_picks(1.1, 0.2, SERVE_URLS)
    texts = rng.integers(0, SERVE_TEXTS, SERVE_COMMENTS)
    for n in range(SERVE_COMMENTS):
        store.add_comment(CrawledComment(
            comment_id=f"{n:09x}cafe",
            author_id=f"{int(authors[n]):08x}beef",
            commenturl_id=f"{int(urls[n]):08x}feed",
            text=f"comment body {int(texts[n])}",
            parent_comment_id=None,
            created_at_epoch=BASE_EPOCH + n,
            shadow_label=None,
        ))
    return store.seal()


class ServePowerlaw(Workload):
    """A cold ``ServeApp`` under a seeded 10^6-user power-law load.

    One client in a closed loop in host time (no think time is slept);
    the virtual-time schedule is open-loop.
    """

    name = "serve-powerlaw"
    references_key = "serve"
    tag_requests = True
    store = scores = None

    def setup(self) -> None:
        from repro.core.scoring import ScoreStore
        from repro.perspective.models import PerspectiveModels
        from repro.store import columns_of

        self.store = self.scores = None
        store_dir = self.tmp / "serve-store"
        shutil.rmtree(store_dir, ignore_errors=True)
        store = build_serve_store(self.entry["store_seed"], store_dir)
        scores = ScoreStore(PerspectiveModels())
        scores.prime(store.texts())
        # The indexes every endpoint reads are built once per process,
        # as a long-running server would, not once per load iteration.
        store.comments_by_url()
        store.comments_by_author()
        view = columns_of(store)
        view.url_comment_order()
        view.author_comment_order()
        self.store, self.scores = store, scores

    def prepare(self) -> None:
        self.expected = self.entry["summary_sha256"]

    def iterate(self, recorder) -> Iteration:
        from measure import serve_failures

        before = _store_counters(self.store)
        start = recorder.clock()
        report, app = serve_load(self.store, self.scores,
                                 self.entry["load_seed"])
        wall = recorder.clock() - start
        digest = sha256_text(report.summary_text())
        ok = digest == self.expected
        return Iteration(
            wall_s=wall,
            request_s=wall,
            attempted=report.requests,
            failed=serve_failures(report.status_counts, recorder.probe_404s),
            correct=ok,
            counters={
                "serve.cache_hit_ratio": report.cache_hit_rate,
                "serve.cache_evictions": report.cache_stats["evictions"],
                "serve.throttled": app.throttled,
                **{key: value - before[key]
                   for key, value in _store_counters(self.store).items()},
            },
            problem="" if ok
            else f"summary digest {digest[:16]} != {self.expected[:16]}",
        )


def serve_load(store, scores, load_seed: int):
    """A fresh, cold ``ServeApp`` over ``store`` under one seeded load."""
    from repro.net.clock import VirtualClock
    from repro.net.transport import LoopbackTransport
    from repro.serve import LoadGenerator, ServeApp

    clock = VirtualClock()
    transport = LoopbackTransport(clock=clock, latency=0.05)
    app = ServeApp(
        store, clock,
        score_store=scores,
        core_members=[f"user-{n:06d}" for n in range(0, 200, 3)],
    )
    transport.register(app)
    report = LoadGenerator(
        transport, app,
        n_users=SERVE_SIM_USERS,
        n_requests=SERVE_REQUESTS,
        seed=load_seed,
        keep_log=False,
    ).run()
    return report, app


WORKLOADS = {cls.name: cls for cls in (Reproduce, CrawlDurable, ServePowerlaw)}
