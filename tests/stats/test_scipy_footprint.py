"""``src/repro`` never loads scipy.

The §4.5 power-law fit was the last scipy user; it now carries its own
Hurwitz zeta and bounded Brent (``repro.stats.powerlaw``), so no process
pays scipy's ≈ 40 MB of modules and ≈ 0.4 s of import.  scipy stays a
dev dependency for the parity oracles in ``tests/``.  A fresh
interpreter is the only place to see what a run pulls in: one subprocess
runs a whole pipeline, then a fit.  An AST scan keeps the import out of
the source, so the gate does not hang on which code paths one run takes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith('scipy'))

from repro.core.pipeline import ReproductionPipeline
from repro.platform.config import WorldConfig
ReproductionPipeline(WorldConfig(scale=0.002, seed=0)).run()
after_run = scipy_modules()

from repro.stats import fit_discrete_powerlaw
fit_discrete_powerlaw([1, 1, 1, 2, 2, 3, 4, 5, 8, 13, 21, 34])
after_fit = scipy_modules()

print(json.dumps([after_run, after_fit]))
"""


def scipy_imports(source: str) -> list[int]:
    """Lines of the import statements that name scipy or a submodule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_a_run_and_a_fit_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    after_run, after_fit = json.loads(result.stdout)
    assert after_run == []
    assert after_fit == []


def test_src_repro_imports_no_scipy():
    probe = (
        "import scipy\n"
        "from scipy.special import zeta\n"
        "import json, scipy.optimize as opt\n"
        "def f():\n"
        "    from scipy import stats\n"
        "import scipyx\n"
        "from .scipy import x\n"
    )
    assert scipy_imports(probe) == [1, 2, 3, 5]

    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 100
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in modules
        for line in scipy_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
