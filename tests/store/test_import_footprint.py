"""``import repro.store`` loads no world generator, origin app or scipy.

A process that only reads a sealed corpus (a serve host, an analysis
notebook) must not pay for the simulated platform, nor for the stats
and graph layers that only the crawl's validation and social stages
use.  A fresh interpreter
is the only place to see what an import pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def test_store_import_leaves_the_platform_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, repro.store; "
        "print(sorted(m for m in sys.modules if m.startswith(("
        "'repro.platform', 'repro.stats', 'repro.graph', 'scipy'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
