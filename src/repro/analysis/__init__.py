"""Determinism lint suite (``python -m repro.analysis``).

The reproduction's headline guarantee — corpora, stats and checkpoints
bit-identical across ``--connections 1/4/8`` and across kill→resume
chains — rests on code-level invariants that no
runtime test can exhaustively cover:

* no module reads wall-clock time (everything paces itself on an
  injected :class:`~repro.net.clock.Clock`);
* no unseeded randomness or OS entropy (every generator descends from
  the world seed);
* no unordered ``set``/``frozenset`` iteration on a path that reaches
  corpus, checkpoint, or report bytes;
* every field of a checkpointed dataclass is registered in its
  serialization schema (silent resume drift otherwise).

This package parses the tree with :mod:`ast` and mechanically enforces
those invariants as a catalog of repo-specific checkers (see
:data:`repro.analysis.checkers.CATALOG`).  A finding is accepted only
by a per-line suppression that states why (``# repro: allow DET003
<reason>``); anything else fails CI.
"""

from repro.analysis.checkers import CATALOG
from repro.analysis.engine import (
    Finding,
    ParsedModule,
    analyze_paths,
    analyze_source,
    iter_python_files,
)

__all__ = [
    "CATALOG",
    "Finding",
    "ParsedModule",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
]
