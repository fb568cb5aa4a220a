"""scipy is loaded by the §4.5 power-law fit and by nothing else.

The crawl, the platform, the serve layer and the CLI all import
``repro.stats`` (for its sampling helpers) but never fit a degree
distribution, so none of them may pay scipy's ≈ 40 MB of modules and
≈ 0.5 s of import.  A fresh interpreter is the only place to see what
an import pulls in; one subprocess checks the imports, then a crawl,
then the first fit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith('scipy'))

import repro.cli, repro.core.pipeline, repro.platform.world, repro.serve
after_import = scipy_modules()

from repro.core.pipeline import ReproductionPipeline
from repro.platform.config import WorldConfig
ReproductionPipeline(WorldConfig(scale=0.002, seed=0)).stage_crawl()
after_crawl = scipy_modules()

from repro.stats import fit_discrete_powerlaw
fit_discrete_powerlaw([1, 1, 1, 2, 2, 3, 4, 5, 8, 13, 21, 34])
after_fit = scipy_modules()

print(json.dumps([after_import, after_crawl, after_fit]))
"""


def test_only_a_power_law_fit_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    after_import, after_crawl, after_fit = json.loads(result.stdout)
    assert after_import == []
    assert after_crawl == []
    assert "scipy.optimize" in after_fit and "scipy.special" in after_fit
