"""Sharded multi-process crawl engine: N workers, one deterministic corpus.

PR 3's :class:`~repro.net.pool.FetchPool` gave the crawl K *virtual*
connections — simulated-time concurrency inside one interpreter — so at
paper scale (1.3M accounts / 1.68M comments, ~4M HTTP requests) the wall
clock is still bound by one CPU.  This module adds the real half,
following Dizzy's decouple-discovery-from-fetch design: partition each
crawl phase's job list by a **stable shard key** across N forked worker
processes, each running its own origins + :class:`VirtualClock` +
:class:`FetchPool` + per-shard :class:`CorpusStore`, and let the parent
**merge deterministically** so the final corpus is byte-identical to the
unsharded run.

Why byte-identity is achievable
===============================

The unsharded crawl appends corpus log lines in a global order fixed by
the phase sequence and, within a phase, by the job order (stage-2 user
records in detected order, stage-3 url+comment records in frontier
discovery order, stage-4 user revisions in first-comment-per-author
order, recrawl recoveries, then the two shadow passes in URL order).
The parent computes every phase's job list *with its global order
index* before forking; each worker processes its subset in ascending
index order and records, per appended log line, an **order key**.  The
parent then performs an N-way sorted merge of the per-shard line
streams by order key and replays each original line byte-for-byte into
the final store (:meth:`CorpusStore.replay_line`), which preserves the
dict upsert's first-insertion semantics.  Because a job lives on
exactly one shard, order keys never collide across streams, and the
merged log equals the unsharded log line-for-line — so the sealed
segments, the manifest, and the ``--out`` JSON hash identically.

Responses are a pure function of the request (the loopback origins are
deterministic and fault-free in sharded mode), so workers fetching
disjoint job subsets observe exactly the bytes the sequential crawl
observed.  Two wrinkles are handled explicitly:

* **Phase barriers.**  Stage 3's frontier is *static* (comment pages
  never enqueue new URLs), so the parent can compute the full URL order
  from the merged stage-2 users before stage 3 forks.  Likewise the
  stage-4 author walk and the shadow baselines derive from merged
  state at the phase boundary.
* **Worker-local dedup equals global dedup.**  A shadow-pass comment
  renders only on its own URL's page, and both shadow passes of a URL
  run on the URL's owning shard — so a worker deduplicating against
  (its per-URL baseline ∪ its own additions) reproduces the global
  dedup decision exactly.

Checkpoint envelope (v4) and kill → resume
==========================================

The parent's state file is a **v4 envelope**: the partition spec, the
merged store snapshot at the last completed phase boundary, the phase
artifacts (usernames / detected / failed lists), merged stats, and the
list of shards that already finished the active phase.  Each worker
periodically writes its *own* state file — a v3
:class:`~repro.crawler.checkpoint.CrawlCheckpoint` payload wrapped with
its shard id and phase — under ``<out>.shards/shard-NN/``.  Killing any
single worker therefore resumes *just that shard*: the parent relaunches
only the shards without a phase output file, each continuing from its
own checkpoint, and the merge consumes completed shards' outputs from
disk.

``--die-after K`` composes: the kill budget arms shard 0's transport,
carried across phases (the parent deducts each phase's served count), so
the CI round-trip can kill one worker mid-crawl and ``cmp`` the resumed
merge against the uninterrupted unsharded tree.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
import zlib
from heapq import merge as heap_merge
from pathlib import Path
from typing import Callable, Iterator

from repro.crawler.checkpoint import (
    SHARD_ENVELOPE_VERSION,
    CrawlCheckpoint,
    atomic_write_json,
    coerce_checkpoint,
    coerce_shard_envelope,
)
from repro.crawler.dissenter_crawl import (
    SIZE_THRESHOLD,
    CrawlStats,
    DissenterCrawler,
)
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.gab_enum import GabEnumerationResult, GabEnumerator
from repro.crawler.parsing import parse_user_page
from repro.crawler.runtime import Checkpointer
from repro.crawler.shadow import SHADOW_PASSES, ShadowCrawler
from repro.net.client import ClientStats, HttpClient
from repro.net.clock import VirtualClock
from repro.net.errors import CrawlKilled
from repro.net.http import Response
from repro.net.pool import FetchPool
from repro.platform.apps import Origins, build_origins
from repro.platform.world import World
from repro.store.codecs import decode_line, encode_user
from repro.store.corpus import CorpusStore, iter_snapshot_lines

__all__ = ["SHARD_PHASES", "PARTITION_SPEC", "ShardEngine", "shard_key"]

#: The sharded engine's phases, in execution order.  They cover exactly
#: the corpus-producing §3 stages; the non-corpus stages (YouTube,
#: social graph, validation) read the finished corpus and stay
#: single-process.
SHARD_PHASES = (
    "gab_enum",
    "detect",
    "home_pages",
    "comment_pages",
    "metadata",
    "recrawl",
    "shadow",
)

#: How each phase's job list partitions across workers (recorded in the
#: v4 envelope so a resume can verify it resumes the same partition).
PARTITION_SPEC = {
    "gab_enum": "contiguous ID stripes over (0, max_id]",
    "detect": "crc32(username) % shards",
    "home_pages": "crc32(username) % shards",
    "comment_pages": "crc32(commenturl_id) % shards",
    "metadata": "crc32(author_id) % shards",
    "recrawl": "parent-serial (re-requests are rare and ordered)",
    "shadow": "crc32(commenturl_id) % shards (both passes on one shard)",
}

#: Exit status of a worker (and the parent) interrupted by --die-after.
EXIT_KILLED = 3


def shard_key(value: str, shards: int) -> int:
    """Stable shard assignment for a string key.

    crc32 on the UTF-8 bytes, *never* Python's ``hash()`` — the builtin
    is salted per process (PYTHONHASHSEED), which would scatter a
    resumed run's partition across different workers.
    """
    return zlib.crc32(value.encode("utf-8")) % shards


class ShardEngine:
    """Coordinates N crawl worker processes and their deterministic merge.

    Args:
        world: the generated world (workers inherit it copy-on-write
            through ``fork``, so it is built exactly once).
        shards: worker-process count (>= 1; 1 exercises the identical
            partition/merge machinery on a single worker).
        out: the crawl's ``--out`` path; worker scratch lives under
            ``<out>.shards/`` and the v4 envelope at ``state_path``.
        connections: virtual connections per worker's fetch pool.
        parse_workers: parse threads per worker's fetch pool.
        store_dir: final store's segment spill directory (workers then
            spill their shard segments under their scratch directories).
        segment_records: records per sealed segment (final and shard
            stores alike).
        checkpoint_every: worker checkpoint cadence in pages (0 = only
            the phase-boundary envelope on kill).
        checkpoint_seconds: additional simulated-seconds cadence.
        die_after: kill shard 0's transport after this many of its
            requests (crash-safety testing; carried across phases).
        state_path: v4 envelope location (default ``<out>.state.json``).
    """

    DIE_SHARD = 0

    def __init__(
        self,
        world: World,
        shards: int,
        out: str | Path,
        connections: int = 1,
        parse_workers: int = 0,
        store_dir: str | Path | None = None,
        segment_records: int = 4096,
        checkpoint_every: int = 0,
        checkpoint_seconds: float = 0.0,
        die_after: int | None = None,
        state_path: str | Path | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.world = world
        self.shards = int(shards)
        self.out = Path(out)
        self.shards_dir = Path(str(out) + ".shards")
        self.state_path = (
            Path(state_path)
            if state_path is not None
            else Path(str(out) + ".state.json")
        )
        self.connections = int(connections)
        self.parse_workers = int(parse_workers)
        self.segment_records = int(segment_records)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_seconds = float(checkpoint_seconds)
        self.die_after = die_after
        self.store = CorpusStore(
            store_dir=store_dir, segment_records=segment_records
        )
        self.stats = CrawlStats()
        self.client_stats = ClientStats()
        self.requests = 0
        self.simulated_seconds = 0.0
        #: per-shard wall-clock-relevant CPU detail for benchmarks
        self.phase_meta: dict[str, dict] = {}
        self._artifacts: dict = {}
        self._die_spent = 0
        # Set by the parent immediately before forking a phase; workers
        # read them through fork's copy-on-write inheritance (never
        # pickled).
        self._phase_jobs: list = []
        self._kill_remaining: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Parent: run / resume.
    # ------------------------------------------------------------------

    def run(self, resume: dict | None = None) -> CorpusStore:
        """Run (or resume) the sharded crawl; returns the merged store.

        Raises:
            CrawlKilled: the --die-after budget fired in a worker; the
                v4 envelope has been written to ``state_path`` and the
                surviving shards' phase outputs are on disk.
        """
        start_index = 0
        completed: list[int] = []
        if resume is not None:
            start_index, completed = self._restore(resume)
        for phase in SHARD_PHASES[start_index:]:
            if phase == "recrawl":
                self._run_recrawl()
            else:
                self._run_phase(phase, completed)
            completed = []
        return self.store

    def cleanup(self) -> None:
        """Remove worker scratch and the envelope after a finished run."""
        shutil.rmtree(self.shards_dir, ignore_errors=True)
        self.state_path.unlink(missing_ok=True)

    def _restore(self, payload: dict) -> tuple[int, list[int]]:
        envelope = coerce_shard_envelope(payload, self.shards)
        phase = envelope.get("phase")
        if phase not in SHARD_PHASES:
            raise ValueError(f"unknown sharded phase {phase!r}")
        self.store.restore_payload(envelope["store"])
        self._artifacts = dict(envelope.get("artifacts") or {})
        self.stats = CrawlStats.from_dict(envelope.get("stats") or {})
        self.client_stats = ClientStats.from_dict(envelope.get("client") or {})
        self.requests = int(envelope.get("requests", 0))
        self.simulated_seconds = float(envelope.get("simulated", 0.0))
        # The die-after budget is per *run*, exactly like the unsharded
        # resume legs: each --die-after leg gets K fresh requests.  The
        # envelope's "die_spent" is diagnostic; restoring it would make
        # a zero-remaining budget kill the relaunched worker instantly.
        self._die_spent = 0
        completed = [int(w) for w in envelope.get("completed_shards") or []]
        return SHARD_PHASES.index(phase), completed

    def _write_envelope(self, phase: str, completed: list[int]) -> None:
        atomic_write_json(
            self.state_path,
            {
                "version": SHARD_ENVELOPE_VERSION,
                "kind": "sharded",
                "shards": self.shards,
                "partition": dict(PARTITION_SPEC),
                "phase": phase,
                "completed_shards": sorted(completed),
                "store": self.store.snapshot(),
                "artifacts": self._artifacts,
                "stats": self.stats.to_dict(),
                "client": self.client_stats.to_dict(),
                "requests": self.requests,
                "simulated": self.simulated_seconds,
                "die_spent": self._die_spent,
            },
        )

    # ------------------------------------------------------------------
    # Parent: one worker phase.
    # ------------------------------------------------------------------

    def _shard_dir(self, shard: int) -> Path:
        return self.shards_dir / f"shard-{shard:02d}"

    def _output_path(self, shard: int, phase: str) -> Path:
        return self._shard_dir(shard) / f"{phase}.json"

    def _run_phase(self, phase: str, completed: list[int]) -> None:
        self._phase_jobs = self._plan_phase(phase)
        outputs: dict[int, dict] = {}
        for shard in completed:
            outputs[shard] = json.loads(
                self._output_path(shard, phase).read_text(encoding="utf-8")
            )
        pending = [w for w in range(self.shards) if w not in outputs]
        if pending:
            self._kill_remaining = {}
            if self.die_after is not None and self.DIE_SHARD in pending:
                self._kill_remaining[self.DIE_SHARD] = max(
                    0, self.die_after - self._die_spent
                )
            killed = self._launch(phase, pending, outputs)
            if killed:
                # Fold what the finished shards did so a resumed parent
                # reports cumulative counters, then leave the envelope.
                self._write_envelope(phase, sorted(outputs))
                raise CrawlKilled(self.requests)
        self._merge_phase(phase, outputs)

    def _launch(
        self, phase: str, pending: list[int], outputs: dict[int, dict]
    ) -> list[int]:
        """Fork one worker per pending shard; returns killed shard ids."""
        context = multiprocessing.get_context("fork")
        workers = []
        for shard in pending:                      # ascending shard id
            process = context.Process(
                target=self._worker_main,
                args=(phase, shard),
                name=f"shard-{shard:02d}-{phase}",
            )
            process.start()
            workers.append((shard, process))
        killed: list[int] = []
        # Collect in shard-id order, never completion order (CONC002):
        # the merge and the envelope must not depend on scheduling.
        for shard, process in workers:
            process.join()
            if process.exitcode == 0:
                outputs[shard] = json.loads(
                    self._output_path(shard, phase).read_text(encoding="utf-8")
                )
                self._account_worker(phase, shard, outputs[shard])
            elif process.exitcode == EXIT_KILLED:
                killed.append(shard)
            else:
                raise RuntimeError(
                    f"shard {shard} worker exited with status "
                    f"{process.exitcode} during phase {phase!r}"
                )
        return killed

    def _account_worker(self, phase: str, shard: int, payload: dict) -> None:
        """Fold one worker's counters into the parent totals."""
        raw_stats = payload.get("stats")
        if raw_stats is not None:
            self.stats.merge(CrawlStats.from_dict(raw_stats))
        self.client_stats.merge(ClientStats.from_dict(payload.get("client") or {}))
        self.requests += int(payload.get("requests", 0))
        if self.die_after is not None and shard == self.DIE_SHARD:
            self._die_spent += int(payload.get("requests", 0))

    # ------------------------------------------------------------------
    # Parent: phase planning (global job order, then partition).
    # ------------------------------------------------------------------

    def _plan_phase(self, phase: str) -> list:
        n = self.shards
        if phase == "gab_enum":
            max_id = self.world.gab.max_id
            base, remainder = divmod(max_id, n)
            stripes: list[tuple[int, int]] = []
            start = 0
            for w in range(n):
                size = base + (1 if w < remainder else 0)
                stripes.append((start, start + size))
                start += size
            return stripes
        if phase == "detect":
            return self._partition_indexed(
                self._artifacts["usernames"], key=lambda name: name
            )
        if phase == "home_pages":
            return self._partition_indexed(
                self._artifacts["detected"], key=lambda name: name
            )
        if phase == "comment_pages":
            # Replay stage 2's discovery pass over the merged users: the
            # frontier dedups in first-seen order, which IS the order a
            # sequential stage 3 would pop (the frontier is static
            # during stage 3 — comment pages never enqueue new URLs).
            frontier: CrawlFrontier[str] = CrawlFrontier()
            for user in self.store.users.values():
                frontier.add_many(user.commented_url_ids)
            return self._partition_indexed(
                frontier.queued(), key=lambda url_id: url_id
            )
        if phase == "metadata":
            users_by_author = self.store.users_by_author_id()
            visited: set[str] = set()
            jobs: list[list[tuple[int, str, str]]] = [[] for _ in range(n)]
            for position, comment in enumerate(self.store.comments.values()):
                author_id = comment.author_id
                if author_id in visited:
                    continue
                user = users_by_author.get(author_id)
                if user is None:
                    continue
                visited.add(author_id)
                jobs[shard_key(author_id, n)].append(
                    (position, comment.comment_id, encode_user(user))
                )
            return jobs
        if phase == "shadow":
            by_url = self.store.comments_by_url()
            shadow_jobs: list[list[tuple[int, str, list[str]]]] = [
                [] for _ in range(n)
            ]
            for position, url_id in enumerate(self.store.urls):
                baseline = [c.comment_id for c in by_url.get(url_id, [])]
                shadow_jobs[shard_key(url_id, n)].append(
                    (position, url_id, baseline)
                )
            return shadow_jobs
        raise ValueError(f"phase {phase!r} has no worker partition")

    def _partition_indexed(
        self, items: list[str], key: Callable[[str], str]
    ) -> list[list[tuple[int, str]]]:
        """Partition (global index, item) pairs by the item's shard key."""
        jobs: list[list[tuple[int, str]]] = [[] for _ in range(self.shards)]
        for position, item in enumerate(items):
            jobs[shard_key(key(item), self.shards)].append((position, item))
        return jobs

    # ------------------------------------------------------------------
    # Parent: deterministic merge.
    # ------------------------------------------------------------------

    def _merge_phase(self, phase: str, outputs: dict[int, dict]) -> None:
        ordered = [outputs[w] for w in range(self.shards)]  # shard-id order
        # Workers run concurrently on real hardware, so the phase's
        # simulated duration is the slowest worker's, not the sum; the
        # per-shard CPU detail feeds the benchmark's critical path.
        self.simulated_seconds += max(
            float(payload.get("simulated", 0.0)) for payload in ordered
        )
        self.phase_meta[phase] = {
            "simulated": max(
                float(payload.get("simulated", 0.0)) for payload in ordered
            ),
            "cpu_by_shard": {
                str(w): float(outputs[w].get("cpu_seconds", 0.0))
                for w in range(self.shards)
            },
            "requests_by_shard": {
                str(w): int(outputs[w].get("requests", 0))
                for w in range(self.shards)
            },
        }
        if phase == "gab_enum":
            merged = GabEnumerationResult()
            for payload in ordered:
                part = GabEnumerationResult.from_dict(payload["result"])
                merged.accounts.extend(part.accounts)
                merged.ids_probed += part.ids_probed
                merged.misses += part.misses
            self._artifacts["usernames"] = merged.usernames()
            self._artifacts["enum"] = {
                "accounts": len(merged.accounts),
                "ids_probed": merged.ids_probed,
                "misses": merged.misses,
            }
            return
        if phase == "detect":
            indices = sorted(
                index for payload in ordered for index in payload["detected"]
            )
            usernames = self._artifacts["usernames"]
            self._artifacts["detected"] = [usernames[i] for i in indices]
            # The username list is only needed to interpret detect
            # indices; drop it so later envelopes stay bounded.
            del self._artifacts["usernames"]
            return
        self._merge_lines(ordered)
        if phase == "comment_pages":
            failed = sorted(
                (int(position), str(url_id))
                for payload in ordered
                for position, url_id in payload.get("failed", [])
            )
            # Global-index order == the order a sequential stage 3 would
            # have recorded the failures (no mid-stage retries occur in
            # fault-free runs, and sharded mode is fault-free).
            self._artifacts["failed"] = [url_id for _, url_id in failed]
            self.stats.replace_failed(list(self._artifacts["failed"]))
        elif phase == "shadow":
            found = {"nsfw": 0, "offensive": 0}
            for payload in ordered:
                for label, count in (payload.get("found") or {}).items():
                    found[label] = found.get(label, 0) + int(count)
            self._artifacts["shadow_found"] = found

    def _merge_lines(self, ordered: list[dict]) -> None:
        """N-way merge of worker log lines by global order key."""
        streams = []
        for payload in ordered:
            lines = list(iter_snapshot_lines(payload["store"]))
            keys = [tuple(key) for key in payload["keys"]]
            if len(keys) != len(lines):
                raise RuntimeError(
                    f"shard {payload.get('shard')} wrote {len(lines)} log "
                    f"lines but {len(keys)} order keys"
                )
            # Each stream is already ascending (workers process jobs in
            # global-index order); sorting is a near-free Timsort pass
            # that makes the heap merge's precondition explicit.
            streams.append(sorted(zip(keys, lines)))
        for _, line in heap_merge(*streams):
            self.store.replay_line(line)

    # ------------------------------------------------------------------
    # Parent: the serial recrawl phase.
    # ------------------------------------------------------------------

    def _parent_client(self) -> tuple[HttpClient, VirtualClock]:
        clock = VirtualClock()
        origins = build_origins(
            self.world, clock=clock, seed=self.world.config.seed
        )
        return HttpClient(origins.transport), clock

    def _run_recrawl(self) -> None:
        """§3.2's re-request loop, parent-serial over the merged store.

        Failures are rare (fault-free sharded runs usually have none)
        and their recovery order must interleave with nothing, so one
        serial pass in the parent preserves the sequential line order
        at negligible cost.
        """
        failed = [str(url_id) for url_id in self._artifacts.get("failed", [])]
        self.stats.replace_failed(failed)
        if failed:
            client, clock = self._parent_client()
            crawler = DissenterCrawler(client)
            crawler.stats = self.stats
            while crawler.stats.comment_pages_failed:
                if crawler.recrawl_failures(self.store) == 0:
                    break
            self.client_stats.merge(client.stats)
            self.requests += client.stats.requests
            self.simulated_seconds += clock.total_slept
        self._artifacts.pop("failed", None)

    # ------------------------------------------------------------------
    # Worker process entry.
    # ------------------------------------------------------------------

    def _worker_main(self, phase: str, shard: int) -> None:
        sys.exit(self._worker_run(phase, shard))

    def _worker_run(self, phase: str, shard: int) -> int:
        shard_dir = self._shard_dir(shard)
        shard_dir.mkdir(parents=True, exist_ok=True)
        state_path = shard_dir / "state.json"
        clock = VirtualClock()
        origins = build_origins(
            self.world, clock=clock, seed=self.world.config.seed
        )
        kill_remaining = self._kill_remaining.get(shard)
        if kill_remaining is not None:
            origins.transport.kill_after(kill_remaining)
        client = HttpClient(origins.transport)
        pool = FetchPool(clock, self.connections, self.parse_workers)
        checkpointer = None
        if self.checkpoint_every > 0 or self.checkpoint_seconds > 0:
            checkpointer = Checkpointer(
                state_path,
                every_pages=self.checkpoint_every or 25,
                every_seconds=self.checkpoint_seconds,
                clock=clock,
            )
            checkpointer.set_wrapper(
                lambda inner: {
                    "version": SHARD_ENVELOPE_VERSION,
                    "kind": "shard-worker",
                    "shard": shard,
                    "phase": phase,
                    "active": inner,
                }
            )
        resume = self._worker_resume(state_path, phase, shard)
        runner = getattr(self, f"_worker_{phase}")
        try:
            payload = runner(shard, origins, client, pool, checkpointer, resume)
        except CrawlKilled:
            # The pool merged the completed prefix first, so the state
            # written here is a clean sequential boundary.
            if checkpointer is not None:
                checkpointer.flush()
            return EXIT_KILLED
        finally:
            pool.close()
        payload.update(
            {
                "shard": shard,
                "phase": phase,
                "requests": origins.transport.requests_served,
                "client": client.stats.to_dict(),
                "simulated": clock.total_slept,
                "cpu_seconds": _process_cpu_seconds(),
                "fetch": pool.stats.as_dict(),
            }
        )
        atomic_write_json(self._output_path(shard, phase), payload)
        state_path.unlink(missing_ok=True)
        return 0

    @staticmethod
    def _worker_resume(state_path: Path, phase: str, shard: int) -> dict | None:
        if not state_path.exists():
            return None
        try:
            payload = json.loads(state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "shard-worker"
            or payload.get("phase") != phase
            or payload.get("shard") != shard
        ):
            return None   # stale state from an earlier phase
        return payload.get("active")

    def _worker_store(self, shard: int, phase: str) -> CorpusStore:
        """A worker's per-shard store: same sealing cadence, no columns.

        Columns are derived data — the parent's merge replay projects
        them once, over the final line order — so workers skip the
        projection entirely.
        """
        store_dir = None
        if self.store.store_dir is not None:
            store_dir = self._shard_dir(shard) / f"segments-{phase}"
        return CorpusStore(
            store_dir=store_dir,
            segment_records=self.segment_records,
            columns=False,
        )

    # ------------------------------------------------------------------
    # Worker phase runners.  Each returns the phase output payload; jobs
    # arrive through self._phase_jobs (fork-inherited, never pickled).
    # ------------------------------------------------------------------

    def _worker_gab_enum(
        self,
        shard: int,
        origins: Origins,
        client: HttpClient,
        pool: FetchPool,
        checkpointer: Checkpointer | None,
        resume: dict | None,
    ) -> dict:
        start_id, max_id = self._phase_jobs[shard]
        enumerator = GabEnumerator(client)
        result = enumerator.enumerate(
            max_id=max_id,
            checkpointer=checkpointer,
            resume=resume,
            pool=pool,
            start_id=start_id,
        )
        return {"result": result.to_dict()}

    def _worker_detect(
        self,
        shard: int,
        origins: Origins,
        client: HttpClient,
        pool: FetchPool,
        checkpointer: Checkpointer | None,
        resume: dict | None,
    ) -> dict:
        jobs = self._phase_jobs[shard]
        crawler = DissenterCrawler(client)
        detected = crawler.detect_accounts(
            [name for _, name in jobs],
            checkpointer=checkpointer,
            resume=resume,
            pool=pool,
        )
        index_of = {name: position for position, name in jobs}
        return {
            "detected": [index_of[name] for name in detected],
            "stats": crawler.stats.to_dict(),
        }

    def _worker_home_pages(
        self,
        shard: int,
        origins: Origins,
        client: HttpClient,
        pool: FetchPool,
        checkpointer: Checkpointer | None,
        resume: dict | None,
    ) -> dict:
        jobs = self._phase_jobs[shard]
        store = self._worker_store(shard, "home_pages")
        crawler = DissenterCrawler(client)
        index = 0
        keys: list[list[int]] = []
        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "shard")
            index = int(checkpoint.cursor.get("index", 0))
            keys = [list(key) for key in checkpoint.cursor.get("keys", [])]
            if checkpoint.store is not None:
                store.restore_payload(checkpoint.store)
            if checkpoint.stats is not None:
                crawler.stats = CrawlStats.from_dict(checkpoint.stats)
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="shard",
                    stage="home_pages",
                    cursor={"index": index, "keys": list(keys)},
                    store=store.snapshot(),
                    stats=crawler.stats.to_dict(),
                ).to_payload()
            )

        def plan(capacity: int) -> list[int]:
            return list(range(index, min(index + capacity, len(jobs))))

        def fetch(position: int) -> Response | None:
            return client.get_or_none(
                f"{DissenterCrawler.BASE}/user/{jobs[position][1]}"
            )

        def parse(position: int, response: Response | None):
            if (
                response is not None
                and response.status == 200
                and response.size >= SIZE_THRESHOLD
            ):
                return parse_user_page(response.text)
            return None

        def process(position: int, user) -> None:
            nonlocal index
            if user is not None:
                crawler.stats.bump("home_pages_parsed")
                store.add_user(user)
                keys.append([jobs[position][0]])
            index = position + 1

        pool.run(plan, fetch, process, parse=parse, checkpointer=checkpointer)
        return {
            "keys": keys,
            "store": store.snapshot(),
            "stats": crawler.stats.to_dict(),
        }

    def _worker_comment_pages(
        self,
        shard: int,
        origins: Origins,
        client: HttpClient,
        pool: FetchPool,
        checkpointer: Checkpointer | None,
        resume: dict | None,
    ) -> dict:
        jobs = self._phase_jobs[shard]
        position_of = {url_id: position for position, url_id in jobs}
        store = self._worker_store(shard, "comment_pages")
        crawler = DissenterCrawler(client)
        frontier: CrawlFrontier[str] = CrawlFrontier(
            url_id for _, url_id in jobs
        )
        keys: list[list[int]] = []
        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "shard")
            keys = [list(key) for key in checkpoint.cursor.get("keys", [])]
            if checkpoint.frontier is not None:
                frontier = CrawlFrontier.from_state(checkpoint.frontier)
            if checkpoint.store is not None:
                store.restore_payload(checkpoint.store)
            if checkpoint.stats is not None:
                crawler.stats = CrawlStats.from_dict(checkpoint.stats)
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="shard",
                    stage="comment_pages",
                    cursor={"keys": list(keys)},
                    store=store.snapshot(),
                    frontier=frontier.to_state(),
                    stats=crawler.stats.to_dict(),
                ).to_payload()
            )

        def fetch(commenturl_id: str) -> Response | None:
            return client.get_or_none(
                f"{DissenterCrawler.BASE}/discussion/{commenturl_id}"
            )

        def process(commenturl_id: str, outcome) -> None:
            popped = frontier.pop()
            assert popped == commenturl_id
            before = store.log_records
            crawler._merge_comment_page(store, frontier, commenturl_id, outcome)
            added = store.log_records - before
            position = position_of[commenturl_id]
            keys.extend([position, line] for line in range(added))

        pool.run(
            lambda capacity: frontier.peek(capacity),
            fetch,
            process,
            parse=lambda _id, response: (
                DissenterCrawler._comment_page_outcome(response)
            ),
            checkpointer=checkpointer,
        )
        failed = [
            [position_of[url_id], url_id]
            for url_id in crawler.stats.comment_pages_failed
        ]
        return {
            "keys": keys,
            "store": store.snapshot(),
            "stats": crawler.stats.to_dict(),
            "failed": failed,
        }

    def _worker_metadata(
        self,
        shard: int,
        origins: Origins,
        client: HttpClient,
        pool: FetchPool,
        checkpointer: Checkpointer | None,
        resume: dict | None,
    ) -> dict:
        jobs = self._phase_jobs[shard]
        store = self._worker_store(shard, "metadata")
        crawler = DissenterCrawler(client)
        index = 0
        keys: list[list[int]] = []
        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "shard")
            index = int(checkpoint.cursor.get("index", 0))
            keys = [list(key) for key in checkpoint.cursor.get("keys", [])]
            if checkpoint.store is not None:
                store.restore_payload(checkpoint.store)
            if checkpoint.stats is not None:
                crawler.stats = CrawlStats.from_dict(checkpoint.stats)
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="shard",
                    stage="metadata",
                    cursor={"index": index, "keys": list(keys)},
                    store=store.snapshot(),
                    stats=crawler.stats.to_dict(),
                ).to_payload()
            )

        def plan(capacity: int) -> list[int]:
            return list(range(index, min(index + capacity, len(jobs))))

        def fetch(position: int) -> Response | None:
            return client.get_or_none(
                f"{DissenterCrawler.BASE}/comment/{jobs[position][1]}"
            )

        def process(position: int, response: Response | None) -> None:
            nonlocal index
            global_index, _, user_line = jobs[position]
            _, user = decode_line(user_line)
            if crawler._merge_author_page(user, response):
                store.add_user(user)
                keys.append([global_index])
            index = position + 1

        pool.run(plan, fetch, process, checkpointer=checkpointer)
        return {
            "keys": keys,
            "store": store.snapshot(),
            "stats": crawler.stats.to_dict(),
        }

    def _worker_shadow(
        self,
        shard: int,
        origins: Origins,
        client: HttpClient,
        pool: FetchPool,
        checkpointer: Checkpointer | None,
        resume: dict | None,
    ) -> dict:
        jobs = self._phase_jobs[shard]
        store = self._worker_store(shard, "shadow")
        shadow = ShadowCrawler(client, origins.dissenter)
        pass_index = 0
        index = 0
        keys: list[list[int]] = []
        found = {"nsfw": 0, "offensive": 0}
        if resume is not None:
            checkpoint = coerce_checkpoint(resume, "shard")
            pass_index = int(checkpoint.cursor.get("pass_index", 0))
            index = int(checkpoint.cursor.get("index", 0))
            keys = [list(key) for key in checkpoint.cursor.get("keys", [])]
            found.update(checkpoint.cursor.get("found", {}))
            if checkpoint.store is not None:
                store.restore_payload(checkpoint.store)
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: CrawlCheckpoint(
                    crawler="shard",
                    stage="shadow",
                    cursor={
                        "pass_index": pass_index,
                        "index": index,
                        "keys": list(keys),
                        "found": dict(found),
                    },
                    store=store.snapshot(),
                ).to_payload()
            )

        for position in range(pass_index, len(SHADOW_PASSES)):
            pass_index = position
            label, filters = SHADOW_PASSES[position]
            # A fresh authenticated session per pass, exactly like the
            # unsharded crawler (sessions never survive a process).
            token = origins.dissenter.create_session(**filters)
            client.cookies.set_simple("session", token, "dissenter.com")

            def plan(capacity: int) -> list[int]:
                return list(range(index, min(index + capacity, len(jobs))))

            def fetch(job_index: int) -> Response | None:
                return client.get_or_none(
                    f"{ShadowCrawler.BASE}/discussion/{jobs[job_index][1]}"
                )

            def process(job_index: int, comments: list) -> None:
                nonlocal index
                global_index, _, baseline = jobs[job_index]
                before = store.log_records
                found[label] += shadow._merge_labeled(
                    store, comments, label, set(baseline)
                )
                added = store.log_records - before
                keys.extend(
                    [position, global_index, line] for line in range(added)
                )
                index = job_index + 1

            pool.run(
                plan,
                fetch,
                process,
                parse=lambda _i, response: shadow._parse_page_cached(response),
                checkpointer=checkpointer,
            )
            client.cookies.clear("dissenter.com")
            index = 0
            pass_index = position + 1
            if checkpointer is not None:
                checkpointer.flush()
        return {"keys": keys, "store": store.snapshot(), "found": found}


def _process_cpu_seconds() -> float:
    """This process's user+system CPU seconds (for the scaling report).

    On a host with fewer cores than shards the measured wall clock
    cannot show the speedup; per-worker CPU time gives the critical
    path an N-core host would observe.  Diagnostics only — never part
    of corpus or checkpoint bytes.
    """
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return float(usage.ru_utime + usage.ru_stime)


def iter_shard_dirs(shards_dir: str | Path) -> Iterator[Path]:
    """Yield existing shard scratch directories in shard-id order."""
    base = Path(shards_dir)
    if not base.is_dir():
        return
    for entry in sorted(base.iterdir()):
        if entry.is_dir() and entry.name.startswith("shard-"):
            yield entry
