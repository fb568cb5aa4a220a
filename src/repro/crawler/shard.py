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

Workers run the crawlers' own phase methods
==========================================

Every phase's fetch, parse and process is written once, in its crawler.
A worker calls the same method the unsharded crawl runs —
:meth:`GabEnumerator.enumerate`, :meth:`DissenterCrawler.detect_accounts`,
:meth:`~DissenterCrawler.crawl_home_pages`,
:meth:`~DissenterCrawler.crawl_comment_pages`,
:meth:`~DissenterCrawler.crawl_metadata` and
:meth:`ShadowCrawler.run_pass` — over its shard's jobs, with a cursor
state of its own, and records order keys through the methods'
``on_lines`` hook.

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
  (its URLs' baseline ∪ its own additions) reproduces the global dedup
  decision exactly.

Checkpoint envelope (v4) and kill → resume
==========================================

The parent's state file is a **v4 envelope**: the partition spec, the
merged store snapshot at the last completed phase boundary, the phase
artifacts (usernames / detected / failed lists), merged stats, and the
list of shards that already finished the active phase.  Each worker
periodically writes its *own* state set under ``<out>.shards/shard-NN/``:
``state.json`` is ``{"kind": "shard-worker", "shard", "phase", "keys",
"active"}``, where ``active`` is the crawler's own checkpoint of the
phase — the payload it writes in an unsharded crawl, store sidecars and
tail journal included — and ``keys`` references the journal of the
order keys recorded so far.  Killing any single worker therefore
resumes *just that shard*: the parent relaunches only the shards
without a phase output file, each continuing from its own checkpoint,
and the merge consumes completed shards' outputs from disk.

``--die-after K`` composes: the kill budget arms shard 0's transport,
carried across phases (the parent deducts each phase's served count), so
a test can kill one worker mid-crawl and compare the resumed merge with
the uninterrupted unsharded tree.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import shutil
import sys
import zlib
from collections.abc import Callable
from heapq import merge as heap_merge
from pathlib import Path

from repro.crawler.checkpoint import atomic_write_json, is_count
from repro.crawler.dissenter_crawl import CrawlState, CrawlStats, DissenterCrawler
from repro.crawler.frontier import CrawlFrontier
from repro.crawler.gab_enum import GabEnumerationResult, GabEnumerator
from repro.crawler.runtime import Checkpointer, load_state
from repro.crawler.shadow import PASS_NAMES, ShadowCrawler, ShadowState
from repro.net.client import ClientStats, HttpClient
from repro.net.clock import VirtualClock
from repro.net.errors import CrawlKilled
from repro.net.pool import FetchPool
from repro.platform.apps import Origins, build_origins
from repro.platform.world import World
from repro.store.corpus import CorpusStore, iter_snapshot_lines

__all__ = [
    "PARTITION_SPEC",
    "SHARD_ENVELOPE_VERSION",
    "SHARD_PHASES",
    "ShardEngine",
    "coerce_shard_envelope",
    "shard_key",
]

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

#: Version of the parent envelope and of the worker state files.
SHARD_ENVELOPE_VERSION = 4

#: The artifacts a resume at a phase reads (earlier merges wrote them).
_PHASE_ARTIFACTS = {"detect": "usernames", "home_pages": "detected"}

#: Exit status of a worker (and the parent) interrupted by --die-after.
EXIT_KILLED = 3

#: Exit status of a worker whose saved state failed validation.
EXIT_BAD_STATE = 4

# Worker checkpoint journal of the order keys recorded so far.
_KEYS_JOURNAL = "shard.keys"


def shard_key(value: str, shards: int) -> int:
    """Stable shard assignment for a string key.

    crc32 on the UTF-8 bytes, *never* Python's ``hash()`` — the builtin
    is salted per process (PYTHONHASHSEED), which would scatter a
    resumed run's partition across different workers.
    """
    return zlib.crc32(value.encode("utf-8")) % shards


def coerce_shard_envelope(payload: object, shards: int) -> dict:
    """Validate a v4 sharded envelope: every field a resume reads.

    Raises:
        ValueError: not a v4 envelope; written by a run with a different
            ``--shards`` value (the frontier partition is a function of
            the worker count, so resuming under another count would
            re-partition mid-crawl and corrupt the merge order); or a
            field is missing or malformed.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "sharded":
        raise ValueError("not a sharded checkpoint envelope")
    if payload.get("version") != SHARD_ENVELOPE_VERSION:
        raise ValueError(
            f"unsupported sharded envelope version {payload.get('version')!r}"
        )
    if payload.get("shards") != shards:
        raise ValueError(
            f"envelope was written by a --shards {payload.get('shards')} run; "
            f"cannot resume it with --shards {shards}"
        )
    phase = payload.get("phase")
    artifacts = payload.get("artifacts")
    completed = payload.get("completed_shards")
    simulated = payload.get("simulated")
    malformed = {
        "phase": phase not in SHARD_PHASES,
        "store": not isinstance(payload.get("store"), dict),
        "stats": not isinstance(payload.get("stats"), dict),
        "client": not isinstance(payload.get("client"), dict),
        "requests": not is_count(payload.get("requests")),
        "simulated": isinstance(simulated, bool)
        or not isinstance(simulated, (int, float))
        or not 0 <= simulated < math.inf,
        # Distinct ids of this run's shards.
        "completed_shards": not isinstance(completed, list)
        or not all(is_count(shard) and shard < shards for shard in completed)
        or len(set(completed)) != len(completed),
        # The id lists, and the one a resume at ``phase`` reads.
        "artifacts": not isinstance(artifacts, dict)
        or not all(
            _is_strings(artifacts.get(key, []))
            for key in ("usernames", "detected", "failed")
        )
        or any(
            phase == name and needed not in artifacts
            for name, needed in _PHASE_ARTIFACTS.items()
        ),
    }
    for field, bad in malformed.items():
        if bad:
            raise ValueError(f"sharded envelope field {field!r} is malformed")
    return payload


def _is_strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


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
            ValueError: ``resume`` or a worker's saved state is invalid.
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
        Checkpointer(self.state_path).discard()

    def _restore(self, payload: dict) -> tuple[int, list[int]]:
        envelope = coerce_shard_envelope(payload, self.shards)
        self.store.restore_payload(envelope["store"])
        self._artifacts = dict(envelope["artifacts"])
        self.stats = CrawlStats.from_dict(envelope["stats"])
        self.client_stats = ClientStats.from_dict(envelope["client"])
        self.requests = envelope["requests"]
        self.simulated_seconds = float(envelope["simulated"])
        # The die-after budget is per *run*, exactly like the unsharded
        # resume legs: each --die-after leg gets K fresh requests.  The
        # envelope's "die_spent" is diagnostic; restoring it would make
        # a zero-remaining budget kill the relaunched worker instantly.
        self._die_spent = 0
        return (
            SHARD_PHASES.index(envelope["phase"]),
            list(envelope["completed_shards"]),
        )

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

    def _error_path(self, shard: int) -> Path:
        return self._shard_dir(shard) / "error.txt"

    def _read_output(self, shard: int, phase: str) -> dict:
        path = self._output_path(shard, phase)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"shard {shard}'s {phase} output {path} is unreadable: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise ValueError(f"shard {shard}'s {phase} output {path} is not an object")
        return payload

    def _run_phase(self, phase: str, completed: list[int]) -> None:
        self._phase_jobs = self._plan_phase(phase)
        outputs = {shard: self._read_output(shard, phase) for shard in completed}
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
        for _, process in workers:
            process.join()
        killed: list[int] = []
        # Collect in shard-id order, never completion order (CONC002):
        # the merge and the envelope must not depend on scheduling.
        for shard, process in workers:
            if process.exitcode == 0:
                outputs[shard] = self._read_output(shard, phase)
                self._account_worker(phase, shard, outputs[shard])
            elif process.exitcode == EXIT_KILLED:
                killed.append(shard)
            elif process.exitcode == EXIT_BAD_STATE:
                raise ValueError(
                    self._error_path(shard).read_text(encoding="utf-8")
                )
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
            # The first ``remainder`` stripes take one extra ID each.
            base, remainder = divmod(self.world.gab.max_id, n)
            bounds = [w * base + min(w, remainder) for w in range(n + 1)]
            return list(zip(bounds, bounds[1:]))
        if phase == "detect":
            return self._partition(self._artifacts["usernames"])
        if phase == "home_pages":
            return self._partition(self._artifacts["detected"])
        if phase == "comment_pages":
            # Replay stage 2's discovery pass over the merged users: the
            # frontier dedups in first-seen order, which IS the order a
            # sequential stage 3 would pop (the frontier is static
            # during stage 3 — comment pages never enqueue new URLs).
            frontier: CrawlFrontier[str] = CrawlFrontier()
            for user in self.store.users.values():
                frontier.add_many(user.commented_url_ids)
            return self._partition(frontier.queued())
        if phase == "metadata":
            # The worker's copy of each job's user is its own (fork), so
            # mining it leaves the parent's store untouched.
            jobs: list[list] = [[] for _ in range(n)]
            for job in DissenterCrawler.metadata_jobs(self.store):
                jobs[shard_key(job[2].author_id, n)].append(job)
            return jobs
        if phase == "shadow":
            return self._partition(list(self.store.urls))
        raise ValueError(f"phase {phase!r} has no worker partition")

    def _partition(self, items: list[str]) -> list[list[tuple[int, str]]]:
        """Partition (global index, item) pairs by the item's shard key."""
        jobs: list[list[tuple[int, str]]] = [[] for _ in range(self.shards)]
        for position, item in enumerate(items):
            jobs[shard_key(item, self.shards)].append((position, item))
        return jobs

    # ------------------------------------------------------------------
    # Parent: deterministic merge.
    # ------------------------------------------------------------------

    def _merge_phase(self, phase: str, outputs: dict[int, dict]) -> None:
        ordered = [outputs[w] for w in range(self.shards)]  # shard-id order
        # Workers run concurrently on real hardware, so the phase's
        # simulated duration is the slowest worker's, not the sum; the
        # per-shard CPU detail feeds the benchmark's critical path.
        simulated = max(float(payload.get("simulated", 0.0)) for payload in ordered)
        self.simulated_seconds += simulated
        self.phase_meta[phase] = {
            "simulated": simulated,
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
            # Stripes are contiguous, so they concatenate in shard order.
            parts = [GabEnumerationResult.from_dict(p["result"]) for p in ordered]
            usernames = [name for part in parts for name in part.usernames()]
            self._artifacts["usernames"] = usernames
            self._artifacts["enum"] = {
                "accounts": len(usernames),
                "ids_probed": sum(part.ids_probed for part in parts),
                "misses": sum(part.misses for part in parts),
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
            clock = VirtualClock()
            client = HttpClient(
                build_origins(self.world, clock=clock, seed=self.world.config.seed)
                .transport
            )
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
    # Worker process.
    # ------------------------------------------------------------------

    def _worker_main(self, phase: str, shard: int) -> None:
        sys.exit(self._worker_run(phase, shard))

    def _worker_run(self, phase: str, shard: int) -> int:
        shard_dir = self._shard_dir(shard)
        shard_dir.mkdir(parents=True, exist_ok=True)
        state_path = shard_dir / "state.json"
        resuming = state_path.exists()
        clock = VirtualClock()
        origins = build_origins(
            self.world, clock=clock, seed=self.world.config.seed
        )
        kill_remaining = self._kill_remaining.get(shard)
        if kill_remaining is not None:
            origins.transport.kill_after(kill_remaining)
        client = HttpClient(origins.transport)
        checkpointer = None
        # A leftover state file needs its checkpointer to resume from.
        if self.checkpoint_every > 0 or self.checkpoint_seconds > 0 or resuming:
            checkpointer = Checkpointer(
                state_path,
                every_pages=self.checkpoint_every or 25,
                every_seconds=self.checkpoint_seconds,
                clock=clock,
            )
        keys: list[list] = []
        try:
            saved = self._worker_saved_state(state_path, phase, shard)
            if checkpointer is not None:
                if saved is not None:
                    keys = checkpointer.open_journal(_KEYS_JOURNAL, saved.get("keys"))
                checkpointer.set_wrapper(
                    lambda inner: {
                        "version": SHARD_ENVELOPE_VERSION,
                        "kind": "shard-worker",
                        "shard": shard,
                        "phase": phase,
                        "keys": checkpointer.journal(_KEYS_JOURNAL, keys, list),
                        "active": inner,
                    }
                )
            crawl = self._worker_phase(
                phase, shard, origins, client, checkpointer,
                None if saved is None else saved.get("active"), keys,
            )
        except ValueError as exc:
            if not resuming:
                raise
            # Only the saved state has been read so far, so it is at
            # fault.  The parent raises this message.
            self._error_path(shard).write_text(
                f"shard {shard} cannot resume from {state_path}: {exc}",
                encoding="utf-8",
            )
            return EXIT_BAD_STATE
        pool = FetchPool(clock, self.connections)
        try:
            payload = crawl(pool)
        except CrawlKilled:
            # The pool merged the completed prefix first, so the state
            # written here is a clean sequential boundary.
            if checkpointer is not None:
                checkpointer.flush()
            return EXIT_KILLED
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
        if checkpointer is not None:
            checkpointer.discard()
        return 0

    @staticmethod
    def _worker_saved_state(state_path: Path, phase: str, shard: int) -> dict | None:
        """This worker's saved state for ``phase``, or None.

        A state file of another phase is stale and ignored: that phase
        finished after the envelope was written.

        Raises:
            ValueError: the file is not a worker state of this shard.
        """
        if not state_path.exists():
            return None
        payload = load_state(state_path)
        if (
            payload.get("kind") != "shard-worker"
            or payload.get("version") != SHARD_ENVELOPE_VERSION
            or payload.get("shard") != shard
        ):
            raise ValueError(
                f"not a version {SHARD_ENVELOPE_VERSION} worker state of shard {shard}"
            )
        return payload if payload.get("phase") == phase else None

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

    def _worker_phase(
        self,
        phase: str,
        shard: int,
        origins: Origins,
        client: HttpClient,
        checkpointer: Checkpointer | None,
        active: dict | None,
        keys: list[list],
    ) -> Callable[[FetchPool], dict]:
        """Restore this shard's ``phase`` and return the call that crawls it.

        ``active`` is the crawler checkpoint to resume from; it is loaded
        here, before any request, and a ValueError means it is invalid.
        The returned call runs the crawler's phase method over the
        shard's jobs (``self._phase_jobs``: fork-inherited, never
        pickled) and returns the phase output payload.  Corpus phases
        append one order key per log line to ``keys``.
        """
        jobs = self._phase_jobs[shard]
        if phase == "gab_enum":
            start_id, max_id = jobs
            enumerator = GabEnumerator(client)
            if active is not None:
                # enumerate() restores it again, from the same files.
                enumerator.restore(active, checkpointer)
            return lambda pool: {
                "result": enumerator.enumerate(
                    max_id=max_id, checkpointer=checkpointer, resume=active,
                    pool=pool, start_id=start_id,
                ).to_dict()
            }
        dissenter = DissenterCrawler(client)
        if phase == "detect":
            if active is not None:
                dissenter.restore_detect(active)   # detect_accounts does again
            index_of = {name: position for position, name in jobs}

            def detect(pool: FetchPool) -> dict:
                detected = dissenter.detect_accounts(
                    [name for _, name in jobs],
                    checkpointer=checkpointer, resume=active, pool=pool,
                )
                return {
                    "detected": [index_of[name] for name in detected],
                    "stats": dissenter.stats.to_dict(),
                }

            return detect

        store = self._worker_store(shard, phase)
        crawler: DissenterCrawler | ShadowCrawler = dissenter
        if phase == "shadow":
            crawler = ShadowCrawler(client, origins.dissenter)
        state: CrawlState | ShadowState
        if active is not None:
            state = crawler.restore(active, store, checkpointer)
        elif phase == "shadow":
            url_ids = [url_id for _, url_id in jobs]
            by_url = self.store.comments_by_url()
            baseline = {c.comment_id for u in url_ids for c in by_url.get(u, ())}
            state = ShadowState(url_ids, baseline)
        elif phase == "comment_pages":
            state = CrawlState(phase, frontier=CrawlFrontier(u for _, u in jobs))
        else:
            state = CrawlState(phase)
        if checkpointer is not None:
            checkpointer.set_provider(
                lambda: crawler.checkpoint(state, store, checkpointer)
            )

        # A job's global order key; shadow keys lead with the active pass.
        position_of = {item: position for position, item, *_ in jobs}
        order_key: Callable[[object], list] = {
            "home_pages": lambda position: [jobs[position][0]],
            "comment_pages": lambda url_id: [position_of[url_id]],
            "metadata": lambda job: [job[0]],
            "shadow": lambda page: [PASS_NAMES.index(state.stage), jobs[page][0]],
        }[phase]

        def record(job, count: int) -> None:
            key = order_key(job)
            keys.extend([*key, line] for line in range(count))

        def crawl(pool: FetchPool) -> dict:
            if isinstance(state, ShadowState):
                while state.stage != "done":
                    crawler.run_pass(store, state, pool, checkpointer, record)
                    if checkpointer is not None:
                        checkpointer.flush()
                return {"keys": keys, "store": store.snapshot(), "found": state.found}
            if phase == "home_pages":
                dissenter.crawl_home_pages(
                    [name for _, name in jobs], store, state, pool, checkpointer,
                    record,
                )
            elif phase == "comment_pages":
                dissenter.crawl_comment_pages(store, state, pool, checkpointer, record)
            else:
                dissenter.crawl_metadata(jobs, store, state, pool, checkpointer, record)
            payload = {
                "keys": keys,
                "store": store.snapshot(),
                "stats": dissenter.stats.to_dict(),
            }
            if phase == "comment_pages":
                payload["failed"] = [
                    [position_of[url_id], url_id]
                    for url_id in dissenter.stats.comment_pages_failed
                ]
            return payload

        return crawl


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
