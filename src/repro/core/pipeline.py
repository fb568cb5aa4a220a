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
   ScoreStore`; each unique text is scored exactly once, a chunk of
   texts per batch call.
3. :meth:`ReproductionPipeline.stage_analyze` — every §4 analysis, all
   reading from the store.

:meth:`ReproductionPipeline.run` chains the stages and records per-stage
wall time plus the store's hit/miss counters on the report.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

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
from repro.crawler.parsing import PageParseMemo
from repro.crawler.reddit_crawl import RedditMatcher, RedditMatchResult
from repro.crawler.runtime import Checkpointer, resume_checkpointer
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
from repro.net.cookies import CookieJar
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

# The state file's one format version (the v5 envelope of stage_crawl).
_PIPELINE_CHECKPOINT_VERSION = 5

# The artifact key each completed stage leaves in a pipeline checkpoint
# (the shadow stage rewrites the corpus it extends).
_STAGE_ARTIFACTS = {
    "gab_enum": "gab_enum",
    "dissenter_detect": "detected",
    "dissenter_crawl": "corpus",
    "shadow": "corpus",
    "youtube": "youtube",
    "social": "social",
}


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
        connections: simulated concurrent connections for every §3
            crawl stage (1 = the historical sequential crawl); corpus,
            stats and checkpoints are bit-identical at any value.
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
        connections: int = 1,
        store_dir: str | None = None,
        segment_records: int = 4096,
    ):
        self.world = world or build_world(config)
        self.origins: Origins = build_origins(
            self.world, with_faults=with_faults, seed=self.world.config.seed
        )
        self.client = HttpClient(self.origins.transport)
        self.models = PerspectiveModels()
        self.store = ScoreStore(self.models)
        self.connections = int(connections)
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
        pool = FetchPool(self.client.clock, self.connections)
        self._pools[stage] = pool
        return pool

    def fetch_extras(self) -> dict[str, dict]:
        """Per-stage fetch-engine counters (jobs, high-watermark, makespan)."""
        return {
            stage: pool.stats.as_dict() for stage, pool in self._pools.items()
        }

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
            checkpointer: write a pipeline checkpoint periodically — a v5
                envelope recording which §3 stage is active, a sidecar
                reference to each completed stage's artifact, the
                client's cookies, and the active crawler's own fields
                (sub-stage, cursor and, per crawler, partial corpus,
                frontier, stats).  Writes are atomic; an artifact is
                written once, when its stage completes.
            resume: a pipeline checkpoint payload previously written to
                ``checkpointer``'s state file (which must be given too:
                it reads the sidecars and journals the payload
                references); completed stages are restored from their
                artifacts without issuing a single request, the cookie
                jar is restored, and the active stage continues from its
                crawler's fields.
        """
        world = self.world
        stage = PIPELINE_STAGES[0]
        artifacts: dict = {}
        active: dict | None = None
        if resume is not None:
            if not isinstance(resume, dict):
                raise ValueError("pipeline checkpoint must be an object")
            if resume.get("version") != _PIPELINE_CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported pipeline checkpoint version "
                    f"{resume.get('version')!r} "
                    f"(only v{_PIPELINE_CHECKPOINT_VERSION} is read)"
                )
            stage = resume.get("stage")
            if stage not in PIPELINE_STAGES:
                raise ValueError(f"unknown pipeline stage {stage!r}")
            checkpointer = resume_checkpointer(checkpointer, "pipeline")
            refs = resume.get("artifacts") or {}
            if not isinstance(refs, dict):
                raise ValueError("pipeline checkpoint artifacts must be an object")
            artifacts = {
                key: checkpointer.read_sidecar(key, ref)
                for key, ref in refs.items()
            }
            missing = sorted({
                key for done, key in _STAGE_ARTIFACTS.items()
                if _stage_done(stage, done) and key not in artifacts
            })
            if missing:
                raise ValueError(
                    f"pipeline checkpoint at stage {stage!r} lacks the "
                    f"artifacts {missing}"
                )
            self.client.cookies = CookieJar.from_state(resume.get("cookies"))
            active = resume.get("active")

        if checkpointer is not None:
            checkpointer.set_wrapper(
                lambda inner: {
                    "version": _PIPELINE_CHECKPOINT_VERSION,
                    "stage": stage,
                    "artifacts": {key: checkpointer.ref(key) for key in artifacts},
                    "cookies": self.client.cookies.to_state(),
                    "active": inner,
                }
            )

        def advance(next_stage: str, payload: Callable[[], object]) -> None:
            """Move to the next stage; checkpoint the completed one's artifact.

            ``payload`` builds the artifact.  It is called only when a
            checkpointer is given: the artifact is read back only on
            resume, from that checkpointer's sidecar.
            """
            nonlocal stage, active
            key = _STAGE_ARTIFACTS[stage]
            stage = next_stage
            active = None
            if checkpointer is not None:
                artifacts[key] = value = payload()
                checkpointer.sidecar(key, value)
                checkpointer.set_provider(None)
                checkpointer.flush()

        # ---- §3.1: Gab ID-space enumeration -------------------------
        if stage == "gab_enum":
            gab_enum = self.enumerate_gab(checkpointer=checkpointer, resume=active)
            advance("dissenter_detect", gab_enum.to_dict)
        else:
            gab_enum = GabEnumerationResult.from_dict(artifacts["gab_enum"])

        # ---- §3.1: Dissenter account detection ----------------------
        # One discussion-page parse memo for the spider, its re-request
        # loop and both shadow passes: a page whose bytes were already
        # parsed in this crawl is not parsed again.  Never checkpointed.
        parse_memo = PageParseMemo()
        crawler = DissenterCrawler(self.client, parse_memo)
        if stage == "dissenter_detect":
            detected = crawler.detect_accounts(
                gab_enum.usernames(),
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("dissenter_detect"),
            )
            advance("dissenter_crawl", lambda: detected)
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
            advance("shadow", corpus.snapshot)
        elif _stage_done(stage, "dissenter_crawl"):
            corpus = self._new_store()
            corpus.restore_payload(artifacts["corpus"])

        # ---- §3.2: shadow (NSFW/offensive) overlay ------------------
        shadow_crawler = ShadowCrawler(
            self.client, self.origins.dissenter, parse_memo
        )
        if stage == "shadow":
            shadow_crawler.uncover(
                corpus,
                checkpointer=checkpointer,
                resume=active,
                pool=self._pool_for("shadow"),
            )
            advance("youtube", corpus.snapshot)
        parse_memo.clear()   # no later stage parses a discussion page

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
            advance("social", youtube_crawl.to_dict)
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
            advance("tail", raw_social.to_dict)
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

    def stage_score(self, artifacts: CrawlArtifacts) -> ScoreStore:
        """Stage 2: the single scoring pass over corpus + baselines.

        After this stage the store holds scores for every text any
        analysis will request; the analyses only read from the cache.
        """
        texts = itertools.chain(
            artifacts.corpus_texts(), *artifacts.baseline_texts.values()
        )
        self.store.prime(texts)
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
        report.extras["simulated_seconds"] = self.client.clock.total_slept
        return report
