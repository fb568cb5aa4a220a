"""R1 — Robustness: checkpointing overhead and resume savings.

The resumable runtime only earns its place if periodic snapshots are
cheap (the crawl issues exactly the same requests, with modest wall-time
overhead) and resuming actually skips work (a killed-and-resumed crawl
issues strictly fewer requests than starting over).  This bench measures
both on the virtual-clock crawl stack, and how many bytes the ticks
write: each tick writes a small state file, completed-stage artifacts
go to write-once sidecars, and growing lists to append-only journals.

The cost of a checkpoint is the host time spent inside
``Checkpointer.flush`` (building the payload, appending journals,
writing the state file, sweeping), summed over a crawl and divided by
its saves, as the median over repeated crawls; the rest of the crawl's
wall time does not enter it.
"""

import statistics
import time

from benchmarks._report import RECORD, record, row
from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import result_to_payload
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.errors import CrawlKilled
from repro.platform.config import WorldConfig
from repro.platform.world import build_world

SCALE = 0.002
SEED = 77
EVERY_PAGES = 100
REPEATS = 3


class _SizingCheckpointer(Checkpointer):
    """Also records the largest state file any tick wrote, and the host
    time spent in :meth:`flush`."""

    largest_state = 0
    flush_seconds = 0.0

    def flush(self) -> bool:
        start = time.perf_counter()
        wrote = super().flush()
        self.flush_seconds += time.perf_counter() - start
        if wrote:
            self.largest_state = max(
                self.largest_state, self.path.stat().st_size
            )
        return wrote


def test_checkpoint_overhead_and_resume_savings(tmp_path):
    config = WorldConfig(scale=SCALE, seed=SEED)
    world = build_world(config)

    # Plain crawl: the baseline for requests.
    plain = ReproductionPipeline(config, world=world)
    plain_artifacts = plain.stage_crawl()
    plain_requests = plain.origins.transport.requests_attempted

    # Same crawl with aggressive periodic checkpointing, repeated.
    per_save_ms = []
    for repeat in range(REPEATS):
        state_path = tmp_path / f"crawl-{repeat}.state.json"
        checkpointed = ReproductionPipeline(config, world=world)
        checkpointer = _SizingCheckpointer(state_path, every_pages=EVERY_PAGES)
        checkpointed_artifacts = checkpointed.stage_crawl(
            checkpointer=checkpointer
        )
        checkpointed_requests = checkpointed.origins.transport.requests_attempted
        assert checkpointed_requests == plain_requests
        per_save_ms.append(
            checkpointer.flush_seconds / max(checkpointer.saves, 1) * 1000.0
        )

    # Kill at the halfway request, then resume from the last snapshot.
    kill_path = tmp_path / "killed.state.json"
    killed = ReproductionPipeline(config, world=world)
    killed.origins.transport.kill_after(plain_requests // 2)
    try:
        killed.stage_crawl(
            checkpointer=Checkpointer(kill_path, every_pages=EVERY_PAGES)
        )
        raise AssertionError("kill injector did not fire")
    except CrawlKilled:
        pass
    resumed = ReproductionPipeline(config, world=world)
    resumed_artifacts = resumed.stage_crawl(
        checkpointer=Checkpointer(kill_path, every_pages=EVERY_PAGES),
        resume=load_state(kill_path),
    )
    resumed_requests = resumed.origins.transport.requests_attempted

    # A save writes the active crawler's cursor plus references; the
    # bytes written across all ticks (state files, sidecars, journal
    # appends) grow with the crawl, not with ticks times crawl size.
    # Cadence amortises the per-save cost, and on a real weeks-long
    # crawl network latency dwarfs it.
    lines = [
        row("crawl size (requests)", "-", plain_requests),
        row("requests with checkpointing", "identical",
            checkpointed_requests),
        row("checkpoints written", f"~every {EVERY_PAGES} pages",
            checkpointer.saves),
        row("bytes written, all ticks", "state + sidecars + journals",
            f"{checkpointer.bytes_written / 1024:.0f} KiB"),
        row("largest state file", "-",
            f"{checkpointer.largest_state / 1024:.1f} KiB"),
        row(f"flush host time per checkpoint (median of {REPEATS})",
            "amortised by cadence",
            f"{statistics.median(per_save_ms):.2f} ms  (runs: "
            + ", ".join(f"{ms:.2f}" for ms in per_save_ms) + ")"),
        row("resume leg requests", f"< {plain_requests}", resumed_requests),
        row("requests saved by resuming", "> 0",
            plain_requests - resumed_requests),
    ]
    record("checkpoint_overhead",
           "R1 — checkpointing overhead and resume savings", lines,
           write=RECORD)

    # Checkpointing must not change what gets fetched…
    assert checkpointed_requests == plain_requests
    assert result_to_payload(checkpointed_artifacts.corpus) == (
        result_to_payload(plain_artifacts.corpus)
    )
    assert checkpointer.saves > 0
    # …and resuming must provably skip already-fetched work.
    assert resumed_requests < plain_requests
    assert result_to_payload(resumed_artifacts.corpus) == (
        result_to_payload(plain_artifacts.corpus)
    )
