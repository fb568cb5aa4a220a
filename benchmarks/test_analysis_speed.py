"""Analysis-suite throughput: per-module catalog vs project pass.

The lint suite gates every CI run, so its wall time is a tax on every
change.  This bench times the per-module catalog and the
interprocedural ``--project`` pass on top, so the cost of whole-program
analysis is a recorded number rather than folklore.
"""

import time

from benchmarks._report import record, row
from repro.analysis.engine import analyze_paths, parse_modules

TREE = "src/repro"


def _timed(**kwargs) -> tuple[float, list]:
    t0 = time.perf_counter()
    findings = analyze_paths([TREE], **kwargs)
    return time.perf_counter() - t0, findings


def test_analysis_speed_per_module_vs_project():
    modules = parse_modules([TREE])

    serial_seconds, serial_findings = _timed()
    project_seconds, project_findings = _timed(project=True)

    lines = [
        row("modules analyzed", "-", len(modules)),
        row("per-module pass", "-", f"{serial_seconds:.2f} s"),
        row("project pass (taint + state machines)", "-",
            f"{project_seconds:.2f} s"),
        row("project-pass overhead", "-",
            f"{project_seconds - serial_seconds:.2f} s"),
    ]
    record(
        "analysis_speed",
        "Analysis suite throughput: per-module vs --project",
        lines,
        context={"tree": TREE},
    )

    # The project pass only ever adds findings on top of the catalog.
    assert {
        (f.code, f.path, f.line) for f in serial_findings
    } <= {(f.code, f.path, f.line) for f in project_findings}
