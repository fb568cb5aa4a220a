"""Where the benchmark wraps ``repro``, and how spans become layer metrics.

Layers are named after the modules: ``platform`` (world build and origin
apps), ``net`` (transport, client, rate limiters), ``crawl`` (the §3
phases), ``ckpt`` (``crawler.runtime`` / ``crawler.checkpoint``),
``store`` (segments, seal, columns, indexes), ``score`` (``core.scoring``),
``analyze`` (the §4 functions), ``graph`` (CSR build and reductions) and
``serve``.  ``repro.analysis`` (a lint tool) and ``graph.diffusion``
(only used by ``build_serve_stack``) are not on any workload's path.
"""

from __future__ import annotations

import time
from pathlib import Path

from measure import is_probe_url
from tracing import Patches, Tracer, by_group, by_name

#: §3 phases: span name -> the public call that runs it.  "tail" is the
#: validation and Reddit matching that close ``stage_crawl``.
CRAWL_PHASES = (
    "gab_enum", "dissenter_detect", "dissenter_crawl", "recrawl",
    "shadow", "youtube", "social", "tail",
)

#: §4 analyses as ``stage_analyze`` calls them: metric suffix -> the name
#: imported into ``repro.core.pipeline``.
ANALYSES = {
    "growth": "analyze_gab_growth",
    "concentration": "comment_concentration",
    "user_table": "user_table",
    "headlines": "compute_headlines",
    "urls": "analyze_urls",
    "languages": "analyze_languages",
    "youtube": "analyze_youtube",
    "shadow": "analyze_shadow_toxicity",
    "votes": "analyze_votes",
    "baselines": "baseline_overview",
    "ratios": "comment_ratios",
    "relative": "relative_toxicity",
    "bias": "analyze_bias",
    "social": "analyze_social_network",
    "hateful_core": "extract_hateful_core",
    "activity_toxicity": "per_user_activity_toxicity",
}

#: Serve endpoint tags (``repro.serve.load.ENDPOINT_MIX``) by URL path.
SERVE_TAGS = (
    "thread", "user", "summary_url", "summary_user", "url_lookup",
    "core", "core_member",
)


def serve_tag(path: str) -> str:
    """The ``ENDPOINT_MIX`` tag of a serve request path."""
    if path.startswith("/api/thread/"):
        return "thread"
    if path.startswith("/api/summary/url/"):
        return "summary_url"
    if path.startswith("/api/summary/user/"):
        return "summary_user"
    if path.startswith("/api/user/"):
        return "user"
    if path.startswith("/api/core/"):
        return "core_member"
    if path == "/api/core":
        return "core"
    if path == "/api/url":
        return "url_lookup"
    return "other"


class Recorder:
    """The instrumentation every run has, traced or not.

    It times each ``LoopbackTransport.send`` (the latency metrics) and
    ``ReproductionPipeline.stage_crawl`` on ``clock``, counts
    ``HttpClient.request`` calls that still fail after retries, and keeps
    the Dissenter crawlers so their failed comment pages can be counted.
    With ``tag_requests`` it also notes each request's serve endpoint tag
    and counts scheduled 404 probes answered 404.
    """

    def __init__(self, tag_requests: bool = False,
                 clock=time.perf_counter) -> None:
        self.tag_requests = tag_requests
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.latencies: list[float] = []
        self.crawl_s = 0.0
        self.tags: list[str] = []
        self.request_failures = 0
        self.probe_404s = 0
        self.dissenter_crawlers: list = []

    def install(self, patches: Patches) -> None:
        from repro.core.pipeline import ReproductionPipeline
        from repro.crawler.dissenter_crawl import DissenterCrawler
        from repro.net.client import HttpClient
        from repro.net.errors import NetworkError
        from repro.net.transport import LoopbackTransport

        clock = self.clock
        recorder = self

        def make_send(send):
            def timed_send(transport, request, *args, **kwargs):
                start = clock()
                try:
                    response = send(transport, request, *args, **kwargs)
                finally:
                    recorder.latencies.append(clock() - start)
                if recorder.tag_requests:
                    recorder.tags.append(serve_tag(request.path))
                    if response.status == 404 and is_probe_url(request.url):
                        recorder.probe_404s += 1
                return response
            return timed_send

        def make_request(request):
            def counted_request(client, *args, **kwargs):
                try:
                    response = request(client, *args, **kwargs)
                except NetworkError:
                    recorder.request_failures += 1
                    raise
                if response.status >= 500 or response.status == 429:
                    recorder.request_failures += 1
                return response
            return counted_request

        def make_crawl(crawl):
            def kept_crawl(crawler, *args, **kwargs):
                recorder.dissenter_crawlers.append(crawler)
                return crawl(crawler, *args, **kwargs)
            return kept_crawl

        def make_stage(stage):
            def timed_stage(*args, **kwargs):
                start = clock()
                try:
                    return stage(*args, **kwargs)
                finally:
                    recorder.crawl_s += clock() - start
            return timed_stage

        patches.replace(LoopbackTransport, "send", make_send)
        patches.replace(ReproductionPipeline, "stage_crawl", make_stage)
        patches.replace(HttpClient, "request", make_request)
        patches.replace(DissenterCrawler, "crawl", make_crawl)

    def pages_failed(self) -> int:
        """Comment pages the last Dissenter crawl left unfetched."""
        if not self.dissenter_crawlers:
            return 0
        return len(self.dissenter_crawlers[-1].stats.comment_pages_failed)


def install_spans(patches: Patches, tracer: Tracer) -> None:
    """Wrap every layer's public calls in spans."""
    import repro.core.pipeline as pipeline_mod
    import repro.crawler.runtime as runtime_mod
    import repro.store.corpus as corpus_mod
    from repro.core.scoring import ScoreStore
    from repro.crawler.dissenter_crawl import DissenterCrawler
    from repro.crawler.gab_enum import GabEnumerator
    from repro.crawler.runtime import Checkpointer
    from repro.crawler.shadow import ShadowCrawler
    from repro.crawler.social_crawl import SocialGraphCrawler
    from repro.crawler.youtube_crawl import YouTubeCrawler
    from repro.graph.csr import CSRGraph
    from repro.net.client import HttpClient
    from repro.net.ratelimit import HeaderRateLimiter, KeyedRateLimiter
    from repro.net.router import App
    from repro.net.transport import LoopbackTransport
    from repro.serve.api import ServeApp
    from repro.serve.cache import RenderCache
    from repro.serve.load import LoadGenerator
    from repro.store.columns import ColumnProjector, ColumnView
    from repro.store.corpus import CorpusStore

    def wrap(owner, attr, name, after=None):
        patches.replace(owner, attr, tracer.wrapper(name, after))

    def count_bytes(args, result):
        tracer.counters["ckpt.bytes_written"] += Path(args[0]).stat().st_size

    # platform: origin apps (their renders run inside net.send).
    wrap(pipeline_mod, "build_origins", "platform.origins")
    for cls in App.__subclasses__():
        if cls.__module__.startswith("repro.platform."):
            wrap(cls, "prepare", "platform.render")
            wrap(cls, "render", "platform.render")
    # net
    wrap(HttpClient, "request", "net.request")
    wrap(LoopbackTransport, "send", "net.send")
    wrap(HeaderRateLimiter, "before_request", "net.ratelimit")
    wrap(HeaderRateLimiter, "after_response", "net.ratelimit")
    # crawl phases
    wrap(GabEnumerator, "enumerate", "crawl.gab_enum")
    wrap(DissenterCrawler, "detect_accounts", "crawl.dissenter_detect")
    wrap(DissenterCrawler, "crawl", "crawl.dissenter_crawl")
    wrap(DissenterCrawler, "recrawl_failures", "crawl.recrawl")
    wrap(ShadowCrawler, "uncover", "crawl.shadow")
    wrap(YouTubeCrawler, "crawl", "crawl.youtube")
    wrap(SocialGraphCrawler, "crawl", "crawl.social")
    wrap(pipeline_mod.ReproductionPipeline, "validate", "crawl.tail")
    wrap(pipeline_mod.ReproductionPipeline, "match_reddit", "crawl.tail")
    # ckpt
    wrap(Checkpointer, "flush", "ckpt.flush")
    wrap(runtime_mod, "atomic_write_json", "ckpt.write", count_bytes)
    wrap(runtime_mod, "load_state", "ckpt.resume")
    wrap(CorpusStore, "restore_payload", "ckpt.resume")
    # store: write side ...
    wrap(ColumnProjector, "take_segment", "store.seal")
    wrap(corpus_mod, "write_segment", "store.seal")
    wrap(corpus_mod, "adopt_columns", "store.seal")
    wrap(corpus_mod, "write_manifest", "store.seal")
    wrap(CorpusStore, "seal", "store.seal")
    wrap(CorpusStore, "snapshot", "store.snapshot")
    # ... and read side
    for attr in ("users_by_author_id", "comments_by_url",
                 "comments_by_author", "active_author_ids", "active_users",
                 "column_chunks", "column_view"):
        wrap(CorpusStore, attr, "store.read")
    for attr in ("url_comment_order", "author_comment_order",
                 "attribute_scores", "score_rows"):
        wrap(ColumnView, attr, "store.read")
    # score
    wrap(ScoreStore, "prime", "score.prime")
    # analyze and graph
    for suffix, attr in ANALYSES.items():
        wrap(pipeline_mod, attr, "analyze." + suffix)
    wrap(pipeline_mod, "induce_dissenter_graph", "graph.induce")
    for attr in ("out_degrees", "in_degrees", "isolated_count",
                 "top_k_by_degree", "mutual_edge_mask", "mutual_pairs",
                 "connected_components", "component_sizes"):
        wrap(CSRGraph, attr, "graph.reduce")
    # serve
    wrap(ServeApp, "render", "serve.render")
    wrap(RenderCache, "get", "serve.cache")
    wrap(RenderCache, "put", "serve.cache")
    wrap(KeyedRateLimiter, "try_acquire", "serve.limiter")
    wrap(LoadGenerator, "run", "serve.loadgen")


def _phase_of(name: str) -> str | None:
    if name.startswith("crawl."):
        return name[len("crawl."):]
    return None


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict:
    """Per-layer metrics of one traced iteration.

    ``counters`` are the iteration's own counts (requests, cache hits,
    segments...) plus the tracer's byte counters.  Metrics a workload
    does not exercise come out as 0.
    """
    names = by_name(spans)
    phases = by_group(spans, _phase_of)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    m: dict[str, float] = {}
    m["platform.render_s"] = self_s("platform.render")
    m["platform.origins_s"] = total("platform.origins")
    for key in ("requests", "retries", "timeouts", "bytes_received"):
        m["net." + key] = counters.get("net." + key, 0)
    m["net.send_s"] = total("net.send")
    m["net.transport_s"] = self_s("net.send")
    m["net.client_overhead_s"] = self_s("net.request")
    m["net.ratelimit_s"] = self_s("net.ratelimit")
    for phase in CRAWL_PHASES:
        entry = phases.get(phase, {"total_s": 0.0, "calls": {}, "inner_s": {}})
        ckpt = sum(entry["inner_s"].get(n, 0.0)
                   for n in ("ckpt.flush", "ckpt.resume"))
        m[f"crawl.{phase}_s"] = entry["total_s"] - ckpt
        m[f"crawl.{phase}_requests"] = entry["calls"].get("net.send", 0)
    m["ckpt.writes"] = calls("ckpt.write")
    m["ckpt.payload_s"] = self_s("ckpt.flush")
    m["ckpt.write_s"] = total("ckpt.write")
    m["ckpt.bytes_written"] = counters.get("ckpt.bytes_written", 0)
    m["ckpt.resume_s"] = total("ckpt.resume")
    m["store.seal_s"] = total("store.seal")
    m["store.snapshot_s"] = total("store.snapshot")
    m["store.read_s"] = self_s("store.read")
    for key in ("segments_sealed", "columns_projected", "column_fallbacks",
                "index_builds"):
        m["store." + key] = counters.get("store." + key, 0)
    m["score.prime_s"] = total("score.prime")
    m["score.unique_texts"] = counters.get("score.unique_texts", 0)
    m["score.hits"] = counters.get("score.hits", 0)
    m["score.texts_per_s"] = (
        m["score.unique_texts"] / m["score.prime_s"]
        if m["score.prime_s"] > 0 else 0.0
    )
    for suffix in ANALYSES:
        m[f"analyze.{suffix}_s"] = total("analyze." + suffix)
    m["graph.induce_s"] = total("graph.induce")
    m["graph.reduce_s"] = total("graph.reduce")
    m["serve.render_s"] = self_s("serve.render")
    m["serve.cache_s"] = self_s("serve.cache")
    m["serve.limiter_s"] = self_s("serve.limiter")
    m["serve.loadgen_overhead_s"] = self_s("serve.loadgen")
    for key in ("cache_hit_ratio", "cache_evictions", "throttled"):
        m["serve." + key] = counters.get("serve." + key, 0)
    return m
