"""Paper-vs-measured reporting for the benchmark suite.

Each bench calls :func:`record` with the rows it reproduced; the rows are
printed (visible under ``pytest -s``) and written to
``benchmarks/results/<name>.txt``, replacing the previous run's record,
so a ``--benchmark-only`` run leaves a browsable record of every table
and figure.  A bench whose rows are host timings writes them only when
:data:`RECORD` is set (``BENCH_RECORD=1``), so its CI smoke step, run
locally, leaves the committed ledger and ``git status`` alone.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

RESULTS_DIR = Path(__file__).parent / "results"
#: Write the host-timing benches' records (``BENCH_RECORD=1``).
RECORD = os.environ.get("BENCH_RECORD") == "1"

__all__ = ["RECORD", "record", "row"]


def row(label: str, paper: object, measured: object) -> str:
    """Format one paper-vs-measured line."""
    return f"{label:<48s} paper={paper!s:<18s} measured={measured!s}"


def record(
    name: str,
    title: str,
    lines: Iterable[str],
    context: dict | None = None,
    write: bool = True,
) -> None:
    """Write a bench's comparison block to disk and stdout.

    ``context`` holds run parameters the numbers depend on (segment
    count, column cache-hit counters, corpus size) so a result file is
    interpretable on its own.  ``write=False`` only prints the block: a
    shrunk smoke run must not replace the full-size record, nor a timing
    run that was not asked to record.
    """
    body_lines = [title, "=" * len(title), *lines]
    if context:
        pairs = "  ".join(f"{key}={value}" for key, value in context.items())
        body_lines.append(f"context: {pairs}")
    body = "\n".join([*body_lines, ""])
    if write:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(body, encoding="utf-8")
    print("\n" + body)
