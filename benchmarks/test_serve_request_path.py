"""Serve request path: host µs per request in each stage.

Every request of perfbench's ``serve-powerlaw`` workload runs the same
path: the load generator builds a URL and a ``Request``, the loopback
transport charges latency and dispatches, the ``ServeApp`` middleware
takes a rate-limit token, the render cache is probed, and on a miss the
router matches a route, a handler builds its answer and the body is
JSON-encoded; every response leaves in a per-request shell around the
cached master.  This bench builds the workload's store (seed 0: 20k
users, 10k URLs, 200k power-law comments, 65,536-record segments,
spilled and sealed), runs the seed-0 load (20k requests from 10^6
simulated users against a cold app) and splits the host time per
request by stage:

* load generator: ``LoadGenerator.run``, ``_request_url``, ``_send``
  (the schedule walk, URL building, ``Request`` construction, counters);
* transport: ``LoopbackTransport.send`` and ``_dispatch``;
* middleware: ``App.prepare``, the rate-limit middleware and its
  ``KeyedRateLimiter``;
* render: ``ServeApp.render`` itself (cache key, virtual cost);
* cache: ``RenderCache.get`` and ``put``;
* route and handler: ``App.route`` and the endpoint handlers;
* encode: ``Response.json_response``, ``json_text``, ``thread_json``
  and the shared ``encode_json``;
* shell: ``ServeApp._shell``.

A stage's figure is its self time: time in its functions minus time in
the other stages they call.  The tracing wrappers cost host time of
their own, which lands in the callers' self time, so the stages sum to
more than the untraced run; the untraced µs per request is recorded
next to them.  The load report's ``summary_text()`` sha256 must equal
the pinned ``GOLDEN`` digest (at full size it is
``perfbench/references.json``'s seed-0 ``summary_sha256``): a request
path that got faster by answering differently fails here.  There is no
timing assert; the host's speed drifts by tens of percent, so each
figure is the best of ``ROUNDS`` interleaved rounds.

``SERVE_PATH_SHRINK=10`` divides the store and the request count by ten
(the CI smoke size, with its own pinned digest).

``BEFORE_US`` holds this bench's figures for the request path before
the query-free cache key, the shared encoder, the direct thread encoder
and the loop-level load generator changes (commit 20f1156, 2-CPU x86-64
VM, Python 3.11): the median of three runs, interleaved with three runs
of the code after them, whose medians were 43.6 µs untraced, 17.5 load
generator, 4.9 transport, 5.6 middleware, 4.9 render, 2.6 cache, 7.3
route and handler, 10.7 encode (which now holds the thread rows the
handler used to build as dicts), 2.7 shell and 56.4 traced in total.
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
from repro.core.scoring import ScoreStore
from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
from repro.net import http
from repro.net.clock import VirtualClock
from repro.net.http import Response
from repro.net.ratelimit import KeyedRateLimiter
from repro.net.router import App
from repro.net.transport import LoopbackTransport
from repro.perspective.models import PerspectiveModels
from repro.serve import LoadGenerator, ServeApp, api
from repro.serve.cache import RenderCache
from repro.store import CorpusStore, columns_of

SHRINK = int(os.environ.get("SERVE_PATH_SHRINK", "1"))
USERS = 20_000 // SHRINK
URLS = 10_000 // SHRINK
COMMENTS = 200_000 // SHRINK
SEGMENT_RECORDS = 65_536 // SHRINK
REQUESTS = 20_000 // SHRINK
TEXTS = 2_000
SIM_USERS = 1_000_000
BASE_EPOCH = 1_550_000_000
STORE_SEED = 0
LOAD_SEED = 0
ROUNDS = 5

#: shrink -> sha256 of the load report's ``summary_text()``.
GOLDEN = {
    1: "09d1953d767c8bc09845d2aac759469e560954100450ab60d5d4b419e8dcfb84",
    10: "55ff7329ac406c30577f8b7ddb111dccb1f21d5259c3b656a2efe89b9f0fe7fa",
}

#: Stage -> the (owner, attribute) pairs whose self time it is.  A pair
#: the code does not have is skipped.
STAGES = {
    "load generator": [(LoadGenerator, "run"), (LoadGenerator, "_request_url"),
                       (LoadGenerator, "_send")],
    "transport": [(LoopbackTransport, "send"), (LoopbackTransport, "_dispatch")],
    "middleware": [(App, "prepare"), (ServeApp, "_rate_limit"),
                   (KeyedRateLimiter, "try_acquire")],
    "render": [(ServeApp, "render")],
    "cache": [(RenderCache, "get"), (RenderCache, "put")],
    "route and handler": [
        (App, "route"), (App, "render"), (ServeApp, "_thread"),
        (ServeApp, "_user_page"), (ServeApp, "_summary_url"),
        (ServeApp, "_summary_user"), (ServeApp, "_url_lookup"),
        (ServeApp, "_core_listing"), (ServeApp, "_core_membership"),
    ],
    "encode": [(Response, "json_response"), (Response, "json_text"),
               (api, "thread_json"), (api, "encode_json"),
               (http, "encode_json")],
    "shell": [(ServeApp, "_shell")],
}

#: Host µs per request at 20f1156: the median of three runs of this
#: bench there.
BEFORE_US = {
    "untraced": 58.80,
    "load generator": 22.82,
    "transport": 5.23,
    "middleware": 6.08,
    "render": 8.73,
    "cache": 2.93,
    "route and handler": 11.88,
    "encode": 10.97,
    "shell": 3.18,
    "traced total": 71.87,
}


def build_store(store_dir: Path) -> CorpusStore:
    """perfbench's ``build_serve_store``: the same records, in its order."""
    rng = np.random.default_rng([STORE_SEED, 20_200])
    store = CorpusStore(store_dir=store_dir, segment_records=SEGMENT_RECORDS)
    for n in range(USERS):
        store.add_user(CrawledUser(
            username=f"user-{n:06d}",
            author_id=f"{n:08x}beef",
            display_name=f"User {n}",
            permissions={"comment": True, "vote": n % 3 != 0, "pro": False},
            view_filters={"nsfw": n % 5 == 0, "offensive": n % 11 == 0},
        ))
    for n in range(URLS):
        store.add_url(CrawledUrl(
            commenturl_id=f"{n:08x}feed",
            url=f"https://example-{n % 500:03d}.com/page/{n}",
            title=f"Page {n}",
            description="",
            upvotes=int(rng.integers(0, 93)),
            downvotes=int(rng.integers(0, 41)),
        ))

    def power_law_picks(alpha, floor, n_items):
        weights = rng.pareto(alpha, n_items) + floor
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        picks = np.searchsorted(cdf, rng.random(COMMENTS), side="right")
        return np.minimum(picks, n_items - 1)

    authors = power_law_picks(0.8, 0.08, USERS).tolist()
    targets = power_law_picks(1.1, 0.2, URLS).tolist()
    texts = rng.integers(0, TEXTS, COMMENTS).tolist()
    for n in range(COMMENTS):
        store.add_comment(CrawledComment(
            comment_id=f"{n:09x}cafe",
            author_id=f"{authors[n]:08x}beef",
            commenturl_id=f"{targets[n]:08x}feed",
            text=f"comment body {texts[n]}",
            parent_comment_id=None,
            created_at_epoch=BASE_EPOCH + n,
            shadow_label=None,
        ))
    return store.seal()


def load(store: CorpusStore, scores: ScoreStore):
    """One seeded load against a fresh, cold ``ServeApp``."""
    clock = VirtualClock()
    transport = LoopbackTransport(clock=clock, latency=0.05)
    app = ServeApp(
        store, clock,
        score_store=scores,
        core_members=[f"user-{n:06d}" for n in range(0, 200, 3)],
    )
    transport.register(app)
    return LoadGenerator(transport, app, n_users=SIM_USERS,
                         n_requests=REQUESTS, seed=LOAD_SEED).run()


class StageTracer:
    """Self time per stage, by wrapping each stage's functions."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(STAGES, 0.0)
        self._children = [0.0]   # time spent in traced callees, per frame
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, stage: str, function):
        children = self._children
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                self_s[stage] += elapsed - inner
                children[-1] += elapsed
        return traced

    def install(self) -> None:
        for stage, targets in STAGES.items():
            for owner, attr in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(stage, original.__func__))
                else:
                    wrapped = self._wrap(stage, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def test_serve_request_path_per_stage_costs():
    scratch = Path(tempfile.mkdtemp(prefix="serve-request-path-"))
    try:
        store = build_store(scratch / "store")
        scores = ScoreStore(PerspectiveModels())
        scores.prime(store.texts())
        # The indexes every endpoint reads are built once per process,
        # as in perfbench's setup.
        store.comments_by_url()
        store.comments_by_author()
        view = columns_of(store)
        view.url_comment_order()
        view.author_comment_order()
        load(store, scores)   # warm-up
        untraced: list[float] = []
        stages: list[dict[str, float]] = []
        digests = set()
        for _ in range(ROUNDS):
            gc.collect()
            start = time.perf_counter()
            report = load(store, scores)
            untraced.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(
                report.summary_text().encode("utf-8")).hexdigest())
            tracer = StageTracer()
            tracer.install()
            try:
                gc.collect()
                report = load(store, scores)
            finally:
                tracer.remove()
            digests.add(hashlib.sha256(
                report.summary_text().encode("utf-8")).hexdigest())
            stages.append(tracer.self_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert digests == {GOLDEN[SHRINK]}, f"load report changed: {digests}"

    per_request = {"untraced": min(untraced) / REQUESTS * 1e6}
    for stage in STAGES:
        per_request[stage] = min(s[stage] for s in stages) / REQUESTS * 1e6
    per_request["traced total"] = min(
        sum(s.values()) for s in stages) / REQUESTS * 1e6

    def line(label):
        after = per_request[label]
        text = f"{label:<22s} after={after:7.2f} us/request"
        before = BEFORE_US.get(label)
        if SHRINK == 1 and before:
            text = (f"{label:<22s} before={before:7.2f} us  "
                    f"after={after:7.2f} us  ({before / after:.2f}x)")
        return text

    record(
        "serve_request_path",
        "Serve request path — host µs per request, by stage",
        [
            line("untraced"),
            *(line(stage) for stage in STAGES),
            line("traced total"),
            f"{'load summary digest':<22s} {GOLDEN[SHRINK][:16]}… (identical)",
            "stage figures are self times under tracing wrappers (their"
            " cost lands in the callers); best of the interleaved rounds",
            "one run; host speed drifts between runs (stages this change"
            " left alone move with it), so compare against the interleaved"
            " medians in the bench's docstring",
        ],
        context={"users": USERS, "urls": URLS, "comments": COMMENTS,
                 "requests": REQUESTS, "sim_users": SIM_USERS,
                 "rounds": ROUNDS, "cpus": os.cpu_count()},
    )
