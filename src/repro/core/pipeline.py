"""End-to-end reproduction pipeline.

One object that does what the paper did: build (or accept) a world, stand
up its HTTP origins, run the §3 crawl stack, then compute every §4
analysis.  Used by the examples, the integration tests, and the
benchmarks that need the full corpus.

The full run is three explicit stages, mirroring the paper's own
crawl-once / score-once / analyze-many structure:

1. :meth:`ReproductionPipeline.stage_crawl` — every §3 collection stage,
   bundled into a :class:`CrawlArtifacts`.
2. :meth:`ReproductionPipeline.stage_score` — ONE scoring pass over the
   corpus and baselines into the shared :class:`~repro.core.scoring.
   ScoreStore`; each unique text is scored exactly once (optionally on a
   worker pool).
3. :meth:`ReproductionPipeline.stage_analyze` — every §4 analysis, all
   reading from the store.

:meth:`ReproductionPipeline.run` chains the stages and records per-stage
wall time plus the store's hit/miss counters on the report.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core.bias import BiasAnalysis, analyze_bias
from repro.core.language import LanguageAnalysis, analyze_languages
from repro.core.macro import (
    CommentConcentration,
    GabGrowthSeries,
    MacroHeadlines,
    UserTableStats,
    analyze_gab_growth,
    comment_concentration,
    compute_headlines,
    user_table,
)
from repro.core.relative import (
    BaselineOverview,
    CommentRatioAnalysis,
    RelativeToxicity,
    baseline_overview,
    comment_ratios,
    relative_toxicity,
)
from repro.core.scoring import ScoreStore
from repro.core.shadow import ShadowToxicity, analyze_shadow_toxicity
from repro.core.socialnet import (
    HatefulCore,
    SocialNetworkAnalysis,
    analyze_social_network,
    extract_hateful_core,
    per_user_activity_toxicity,
)
from repro.core.urls import UrlTableStats, analyze_urls
from repro.core.votes import VoteToxicity, analyze_votes
from repro.core.youtube import YouTubeAnalysis, analyze_youtube
from repro.crawler.dissenter_crawl import DissenterCrawler
from repro.crawler.gab_enum import GabEnumerationResult, GabEnumerator
from repro.crawler.reddit_crawl import RedditMatcher, RedditMatchResult
from repro.crawler.runtime import Checkpointer
from repro.crawler.shadow import ShadowCrawler
from repro.crawler.social_crawl import (
    SocialCrawlResult,
    SocialGraphCrawler,
    induce_dissenter_graph,
)
from repro.crawler.validation import CrawlValidator, ValidationReport
from repro.crawler.youtube_crawl import (
    YouTubeCrawler,
    YouTubeCrawlResult,
    is_youtube_url,
)
from repro.graph.csr import CSRGraph
from repro.net.client import HttpClient
from repro.net.pool import FetchPool
from repro.perspective.models import PerspectiveModels
from repro.platform.apps import Origins, build_origins
from repro.platform.config import WorldConfig
from repro.platform.world import World, build_world
from repro.store import CorpusStore

__all__ = [
    "CrawlArtifacts",
    "PIPELINE_STAGES",
    "ReproductionPipeline",
    "ReproductionReport",
]

# stage_crawl's resumable §3 stages, in execution order.  A checkpoint
# records which one is active; "tail" (validation, Reddit matching,
# baseline assembly) is cheap and idempotent, so it is re-run wholesale
# when a resume lands there.
PIPELINE_STAGES = (
    "gab_enum",
    "dissenter_detect",
    "dissenter_crawl",
    "shadow",
    "youtube",
    "social",
    "tail",
)

_PIPELINE_CHECKPOINT_VERSION = 3


def _stage_done(stage: str, name: str) -> bool:
    """Whether pipeline stage ``name`` completed before ``stage``."""
    return PIPELINE_STAGES.index(stage) > PIPELINE_STAGES.index(name)


@dataclass
class CrawlArtifacts:
    """Everything the §3 collection stages produced.

    The scoring and analysis stages consume this; nothing in it has been
    scored yet.
    """

    gab_enumeration: GabEnumerationResult
    corpus: CorpusStore
    shadow_crawler: ShadowCrawler
    validation: ValidationReport
    youtube_crawl: YouTubeCrawlResult
    reddit_match: RedditMatchResult
    graph: CSRGraph                    # induced Dissenter follow graph
    active_ids: list[int]
    gab_ids: dict[str, int]            # username -> Gab ID
    baseline_texts: dict[str, list[str]]

    def corpus_texts(self):
        """Every crawled comment text, streamed in corpus order.

        A generator view over the store — the scoring pass submits it
        in chunks instead of materializing the whole corpus as a list.
        """
        return self.corpus.texts()


@dataclass
class ReproductionReport:
    """Everything the pipeline measured."""

    # Crawl artefacts.
    gab_enumeration: GabEnumerationResult
    corpus: CorpusStore
    validation: ValidationReport
    youtube_crawl: YouTubeCrawlResult
    reddit_match: RedditMatchResult

    # §4 analyses.
    growth: GabGrowthSeries
    concentration: CommentConcentration
    user_flags: UserTableStats
    headlines: MacroHeadlines
    url_table: UrlTableStats
    languages: LanguageAnalysis
    youtube: YouTubeAnalysis
    shadow: ShadowToxicity
    votes: VoteToxicity
    baselines: BaselineOverview
    ratios: CommentRatioAnalysis | None
    relative: RelativeToxicity
    bias: BiasAnalysis
    social: SocialNetworkAnalysis
    hateful_core: HatefulCore

    extras: dict[str, object] = field(default_factory=dict)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Wall time per pipeline stage (crawl / score / analyze)."""
        return self.extras.get("stage_seconds", {})

    @property
    def scoring_counters(self) -> dict[str, int]:
        """The score store's hit/miss/batch counters after the run."""
        return self.extras.get("scoring", {})


class ReproductionPipeline:
    """Runs crawl + scoring + analyses against a world's HTTP origins.

    Args:
        config: world configuration (ignored when ``world`` is given).
        world: pre-built world to reuse (worlds are expensive).
        with_faults: inject transport faults to exercise retry paths.
        workers: thread-pool size for the scoring pass (0 = serial);
            results are bit-identical regardless of worker count.
        connections: simulated concurrent connections for every §3
            crawl stage (1 = the historical sequential crawl); corpus,
            stats and checkpoints are bit-identical at any value.
        parse_workers: thread-pool size for off-loading pure page
            parsing during the crawl (0 = parse inline).
        store_dir: spill directory for the corpus store's sealed
            segments; ``None`` keeps segments inline (in memory and in
            checkpoints).  Corpus bytes and report numbers are identical
            either way — only checkpoint-tick cost and peak checkpoint
            size change.
        segment_records: records per sealed corpus segment.
    """

    def __init__(
        self,
        config: WorldConfig | None = None,
        world: World | None = None,
        with_faults: bool = False,
        workers: int = 0,
        connections: int = 1,
        parse_workers: int = 0,
        store_dir: str | None = None,
        segment_records: int = 4096,
    ):
        self.world = world or build_world(config)
        self.origins: Origins = build_origins(
            self.world, with_faults=with_faults, seed=self.world.config.seed
        )
        self.client = HttpClient(self.origins.transport)
        self.models = PerspectiveModels()
        self.store = ScoreStore(self.models, workers=workers)
        self.connections = int(connections)
        self.parse_workers = int(parse_workers)
        self.store_dir = store_dir
        self.segment_records = int(segment_records)
        self._pools: dict[str, FetchPool] = {}

    def _new_store(self) -> CorpusStore:
        """A fresh corpus store configured from the pipeline's flags."""
        return CorpusStore(
            store_dir=self.store_dir, segment_records=self.segment_records
        )

    def _pool_for(self, stage: str) -> FetchPool:
        """A fresh fetch pool for one §3 stage (kept for its counters)."""
        pool = FetchPool(
            self.client.clock, self.connections, self.parse_workers
        )
        old = self._pools.get(stage)
        if old is not None:
            old.close()
        self._pools[stage] = pool
        return pool

    def fetch_extras(self) -> dict[str, dict]:
        """Per-stage fetch-engine counters (jobs, high-watermark, makespan)."""
        return {
            stage: pool.stats.as_dict() for stage, pool in self._pools.items()
        }

    def close_pools(self) -> None:
        for pool in self._pools.values():
            pool.close()

    # ------------------------------------------------------------------
    # Crawl stages (each usable on its own).
    # ------------------------------------------------------------------

    def enumerate_gab(
        self,
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
    ) -> GabEnumerationResult:
        enumerator = GabEnumerator(self.client)
        return enumerator.enumerate(
            max_id=self.world.gab.max_id,
            checkpointer=checkpointer,
            resume=resume,
            pool=self._pool_for("gab_enum"),
        )

    def crawl_dissenter(
        self, usernames: list[str]
    ) -> tuple[CorpusStore, DissenterCrawler]:
        crawler = DissenterCrawler(self.client)
        detected = crawler.detect_accounts(
            usernames, pool=self._pool_for("dissenter_detect")
        )
        corpus = crawler.crawl(
            detected,
            pool=self._pool_for("dissenter_crawl"),
            store=self._new_store(),
        )
        while crawler.stats.comment_pages_failed:
            if crawler.recrawl_failures(corpus) == 0:
                break
        return corpus, crawler

    def uncover_shadow(self, corpus: CorpusStore) -> ShadowCrawler:
        shadow = ShadowCrawler(self.client, self.origins.dissenter)
        shadow.uncover(corpus, pool=self._pool_for("shadow"))
        return shadow

    def validate(
        self, corpus: CorpusStore, shadow: ShadowCrawler
    ) -> ValidationReport:
        config = self.world.config
        validator = CrawlValidator(
            window_start=config.epoch_dissenter - 45 * 86_400,
            window_end=config.crawl_time + 86_400,
        )
        report = validator.check_consistency(corpus)
        return validator.verify_shadow_sample(corpus, shadow, report=report)

    def crawl_youtube(self, corpus: CorpusStore) -> YouTubeCrawlResult:
        crawler = YouTubeCrawler(self.client)
        urls = [u.url for u in corpus.urls.values() if is_youtube_url(u.url)]
        return crawler.crawl(urls, pool=self._pool_for("youtube"))

    def crawl_social(self, corpus: CorpusStore, gab_enum: GabEnumerationResult):
        gab_ids = {
            account.username: account.gab_id
            for account in gab_enum.accounts
        }
        active_ids = [
            gab_ids[u.username]
            for u in corpus.active_users()
            if u.username in gab_ids
        ]
        crawler = SocialGraphCrawler(self.client, floor_interval=0.0)
        raw = crawler.crawl(active_ids, pool=self._pool_for("social"))
        return induce_dissenter_graph(raw, active_ids), active_ids, gab_ids

    def match_reddit(self, corpus: CorpusStore) -> RedditMatchResult:
        matcher = RedditMatcher(self.client)
        return matcher.match(sorted(corpus.users))

    # ------------------------------------------------------------------
    # Pipeline stages.
    # ------------------------------------------------------------------

    def stage_crawl(
        self,
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
    ) -> CrawlArtifacts:
        """Stage 1: every §3 collection stage; nothing is scored yet.

        Args:
            checkpointer: write a composite pipeline checkpoint
                periodically — it records which §3 stage is active, the
                artifacts of completed stages, and the active crawler's
                own v3 checkpoint (frontier, cursor, partial corpus,
                cookies).  Writes are atomic.
            resume: a previously written pipeline checkpoint payload;
                completed stages are restored from their artifacts
                without issuing a single request, and the active stage
                continues from its crawler checkpoint.
        """
        world = self.world
        stage = PIPELINE_STAGES[0]
        artifacts: dict = {}
        active: dict | None = None
        if resume is not None:
            if not isinstance(resume, dict) or resume.get("kind") != "pipeline":
                raise ValueError("not a pipeline checkpoint payload")
            if resume.get("version") != _PIPELINE_CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported pipeline checkpoint version "
                    f"{resume.get('version')!r} "
                    f"(only v{_PIPELINE_CHECKPOINT_VERSION} is read)"
                )
            stage = resume["stage"]
            if stage not in PIPELINE_STAGES:
                raise ValueError(f"unknown pipeline stage {stage!r}")
            artifacts = dict(resume.get("artifacts") or {})
            active = resume.get("active")

        if checkpointer is not None:
            checkpointer.set_wrapper(
                lambda inner: {
                    "version": _PIPELINE_CHECKPOINT_VERSION,
                    "kind": "pipeline",
                    "stage": stage,
                    "artifacts": artifacts,
                    "active": inner,
                }
            )

        def advance(next_stage: str) -> None:
            nonlocal stage, active
            stage = next_stage
            active = None
            if checkpointer is not None:
                checkpointer.set_provider(None)
                checkpointer.flush()

        # ---- §3.1: Gab ID-space enumeration -------------------------
        if stage == "gab_enum":
            gab_enum = self.enumerate_gab(checkpointer=checkpointer, resume=active)
            artifacts["gab_enum"] = gab_enum.to_dict()
            advance("dissenter_detect")
        else:
            gab_enum = GabEnumerationResult.from_dict(artifacts["gab_enum"])

        # ---- §3.1: Dissenter account detection ----------------------
        crawler = DissenterCrawler(self.client)
        if stage == "dissenter_detect":
            detected = crawler.detect_accounts(
                gab_enum.usernames(),
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("dissenter_detect"),
            )
            artifacts["detected"] = detected
            advance("dissenter_crawl")
        elif _stage_done(stage, "dissenter_detect"):
            detected = list(artifacts["detected"])

        # ---- §3.1-3.2: the Dissenter spider -------------------------
        if stage == "dissenter_crawl":
            corpus = crawler.crawl(
                detected,
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("dissenter_crawl"),
                store=self._new_store(),
            )
            # §3.2's re-request loop: idempotent, so it is simply re-run
            # if a resume lands between the crawl and its completion.
            while crawler.stats.comment_pages_failed:
                if crawler.recrawl_failures(corpus) == 0:
                    break
            artifacts["corpus"] = corpus.snapshot()
            advance("shadow")
        elif _stage_done(stage, "dissenter_crawl"):
            corpus = self._new_store()
            corpus.restore_payload(artifacts["corpus"])

        # ---- §3.2: shadow (NSFW/offensive) overlay ------------------
        shadow_crawler = ShadowCrawler(self.client, self.origins.dissenter)
        if stage == "shadow":
            shadow_crawler.uncover(
                corpus,
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("shadow"),
            )
            artifacts["corpus"] = corpus.snapshot()
            advance("youtube")

        # The corpus is complete: freeze it so the secondary indexes
        # (by_url / by_author / active authors) are built once and
        # shared by validation and every §4 analysis, and so a stray
        # post-crawl mutation fails loudly instead of skewing them.
        corpus.seal()

        # ---- §3.3: YouTube metadata rendering -----------------------
        yt_urls = [u.url for u in corpus.urls.values() if is_youtube_url(u.url)]
        if stage == "youtube":
            youtube_crawl = YouTubeCrawler(self.client).crawl(
                yt_urls,
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("youtube"),
            )
            artifacts["youtube"] = youtube_crawl.to_dict()
            advance("social")
        elif _stage_done(stage, "youtube"):
            youtube_crawl = YouTubeCrawlResult.from_dict(artifacts["youtube"])

        # ---- §3.4: Gab follower graph -------------------------------
        gab_ids = {
            account.username: account.gab_id for account in gab_enum.accounts
        }
        active_ids = [
            gab_ids[u.username]
            for u in corpus.active_users()
            if u.username in gab_ids
        ]
        if stage == "social":
            social_crawler = SocialGraphCrawler(self.client, floor_interval=0.0)
            raw_social = social_crawler.crawl(
                active_ids,
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("social"),
            )
            artifacts["social"] = raw_social.to_dict()
            advance("tail")
        elif _stage_done(stage, "social"):
            raw_social = SocialCrawlResult.from_dict(artifacts["social"])
        graph = induce_dissenter_graph(raw_social, active_ids)

        # ---- tail: validation, Reddit matching, baselines -----------
        validation = self.validate(corpus, shadow_crawler)
        reddit_match = self.match_reddit(corpus)
        baseline_texts = {
            "reddit": [
                text
                for texts in reddit_match.sample_comments.values()
                for text in texts
            ],
            "nytimes": [c.text for c in world.news.nytimes],
            "dailymail": [c.text for c in world.news.dailymail],
        }
        return CrawlArtifacts(
            gab_enumeration=gab_enum,
            corpus=corpus,
            shadow_crawler=shadow_crawler,
            validation=validation,
            youtube_crawl=youtube_crawl,
            reddit_match=reddit_match,
            graph=graph,
            active_ids=active_ids,
            gab_ids=gab_ids,
            baseline_texts=baseline_texts,
        )

    def stage_score(
        self, artifacts: CrawlArtifacts, workers: int | None = None
    ) -> ScoreStore:
        """Stage 2: the single scoring pass over corpus + baselines.

        After this stage the store holds scores for every text any
        analysis will request; the analyses only read from the cache.
        """
        texts = itertools.chain(
            artifacts.corpus_texts(), *artifacts.baseline_texts.values()
        )
        self.store.prime(texts, workers=workers)
        return self.store

    def stage_analyze(self, artifacts: CrawlArtifacts) -> ReproductionReport:
        """Stage 3: every §4 analysis, reading scores from the store."""
        world = self.world
        corpus = artifacts.corpus
        comment_counts, median_toxicity = per_user_activity_toxicity(
            corpus, artifacts.gab_ids, self.store
        )
        report = ReproductionReport(
            gab_enumeration=artifacts.gab_enumeration,
            corpus=corpus,
            validation=artifacts.validation,
            youtube_crawl=artifacts.youtube_crawl,
            reddit_match=artifacts.reddit_match,
            growth=analyze_gab_growth(artifacts.gab_enumeration.accounts),
            concentration=comment_concentration(corpus),
            user_flags=user_table(corpus),
            headlines=compute_headlines(
                corpus, launch_epoch=world.config.epoch_dissenter
            ),
            url_table=analyze_urls(corpus),
            languages=analyze_languages(corpus),
            youtube=analyze_youtube(artifacts.youtube_crawl, corpus),
            shadow=analyze_shadow_toxicity(corpus, self.store),
            votes=analyze_votes(corpus, self.store),
            baselines=baseline_overview(
                artifacts.reddit_match,
                nytimes_count=world.news.nominal_counts["nytimes"],
                dailymail_count=world.news.nominal_counts["dailymail"],
            ),
            ratios=(
                comment_ratios(corpus, artifacts.reddit_match)
                if artifacts.reddit_match.matched_usernames
                else None
            ),
            relative=relative_toxicity(
                corpus, artifacts.baseline_texts, self.store
            ),
            bias=analyze_bias(corpus, self.store),
            social=analyze_social_network(artifacts.graph, median_toxicity),
            hateful_core=extract_hateful_core(
                artifacts.graph, comment_counts, median_toxicity
            ),
        )
        report.extras["active_gab_ids"] = artifacts.active_ids
        report.extras["columns"] = corpus.column_stats()
        return report

    # ------------------------------------------------------------------
    # Full run.
    # ------------------------------------------------------------------

    def run(
        self,
        checkpointer: Checkpointer | None = None,
        resume: dict | None = None,
    ) -> ReproductionReport:
        """Execute crawl -> scoring pass -> analyses, with stage timings.

        ``checkpointer``/``resume`` apply to the crawl stage only: the
        scoring and analysis stages are pure recomputation over the
        crawl artifacts and need no resumability.
        """
        # Stage timings deliberately read the host clock: they are
        # wall-time diagnostics surfaced on report.extras, never part of
        # the corpus/checkpoint bytes the bit-identity tests compare.
        t0 = time.perf_counter()   # repro: allow DET001 wall-time diagnostics
        artifacts = self.stage_crawl(checkpointer=checkpointer, resume=resume)
        t1 = time.perf_counter()   # repro: allow DET001 wall-time diagnostics
        self.stage_score(artifacts)
        t2 = time.perf_counter()   # repro: allow DET001 wall-time diagnostics
        report = self.stage_analyze(artifacts)
        t3 = time.perf_counter()   # repro: allow DET001 wall-time diagnostics
        report.extras["stage_seconds"] = {
            "crawl": t1 - t0,
            "score": t2 - t1,
            "analyze": t3 - t2,
        }
        report.extras["scoring"] = self.store.counters.as_dict()
        report.extras["connections"] = self.connections
        report.extras["fetch"] = self.fetch_extras()
        simulated = getattr(self.client.clock, "total_slept", None)
        if simulated is not None:
            report.extras["simulated_seconds"] = simulated
        self.close_pools()
        return report
