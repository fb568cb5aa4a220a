"""CLI behaviour: exit codes, formats, fixtures, live tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import analyze_source
from repro.analysis.checkers import known_codes
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

REPO_ROOT = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_module(*args: str, cwd: Path = REPO_ROOT):
    """``python -m repro.analysis <args>`` in a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


# ----------------------------------------------------------------------
# Exit codes (the CI contract), via real subprocesses.
# ----------------------------------------------------------------------

def test_module_exits_nonzero_on_bad_fixture():
    proc = run_module(str(FIXTURES / "det001_bad.py"))
    assert proc.returncode == EXIT_FINDINGS
    assert "DET001" in proc.stdout
    assert "hint:" in proc.stdout


def test_module_exits_zero_on_good_fixture():
    proc = run_module(str(FIXTURES / "det001_good.py"))
    assert proc.returncode == EXIT_CLEAN
    assert "clean" in proc.stdout


def test_module_exits_usage_on_missing_path():
    proc = run_module(str(FIXTURES / "no_such_file.py"))
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr


def test_live_tree_is_clean():
    """The acceptance gate: ``python -m repro.analysis src/repro`` == 0."""
    proc = run_module("src/repro")
    assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr


def test_live_tree_project_pass_is_clean():
    """The interprocedural gate: ``--project src/repro`` == 0."""
    proc = run_module("src/repro", "--project")
    assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr


def test_dump_callgraph_json_and_dot(tmp_path):
    target = tmp_path / "callgraph.json"
    proc = run_module(
        str(FIXTURES / "det101_bad.py"), "--dump-callgraph", str(target)
    )
    assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr
    payload = json.loads(target.read_text())
    assert payload["version"] == 1
    edges = {(e["caller"], e["callee"]) for e in payload["edges"]}
    assert ("det101_bad:to_payload", "det101_bad:_stamp") in edges

    dot_target = tmp_path / "callgraph.dot"
    proc = run_module(
        str(FIXTURES / "det101_bad.py"), "--dump-callgraph", str(dot_target)
    )
    assert proc.returncode == EXIT_CLEAN
    text = dot_target.read_text()
    assert text.startswith("digraph callgraph {")
    assert '"det101_bad:to_payload" -> "det101_bad:_stamp"' in text


# ----------------------------------------------------------------------
# In-process: formats, select, the fixture gate.
# ----------------------------------------------------------------------

def test_json_format(capsys):
    rc = main([str(FIXTURES / "det002_bad.py"), "--format", "json"])
    assert rc == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 8
    assert {f["code"] for f in payload["findings"]} == {"DET002"}
    assert all(f["hint"] for f in payload["findings"])


def test_select_filters_codes(capsys):
    # Under --project, det003_serializer_bad triggers both DET003 (list
    # over a set) and DET103 (that order reaches to_payload()).
    rc = main([str(FIXTURES / "det003_serializer_bad.py"), "--project",
               "--select", "DET003", "--format", "json"])
    assert rc == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in payload["findings"]] == ["DET003", "DET003"]


def test_list_checkers(capsys):
    rc = main(["--list-checkers"])
    assert rc == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003",
                 "CHK001", "SUP001",
                 "DET101", "DET103", "SEAL001",
                 "SUP002"):
        assert code in out


def test_new_bad_fixtures_exit_one_under_project():
    """Every bad fixture fails the --project gate, and its good twin
    stays clean.  Fixtures and the catalog cannot drift apart: each
    fixture is named after a live code, and each code but the
    suppression ones has a bad fixture."""
    codes = known_codes()
    bad_fixtures = sorted(FIXTURES.glob("*_bad.py"))
    assert bad_fixtures
    covered = set()
    for bad in bad_fixtures:
        code = bad.name.split("_", 1)[0].upper()
        assert code in codes, bad.name
        covered.add(code)
        good = bad.with_name(bad.name.replace("_bad.py", "_good.py"))
        assert good.exists(), good.name
        assert main([str(bad), "--project"]) == EXIT_FINDINGS, bad.name
        assert main([str(good), "--project"]) == EXIT_CLEAN, good.name
    assert codes - covered - {"SUP001", "SUP002"} == set()


def test_repro_cli_forwards_analyze_subcommand():
    """``repro analyze`` is a thin alias for ``python -m repro.analysis``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze",
         str(FIXTURES / "det001_bad.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_FINDINGS
    assert "DET001" in proc.stdout


# ----------------------------------------------------------------------
# The negative control the issue demands: deliberately adding a
# wall-clock call to crawler code must fail the gate.
# ----------------------------------------------------------------------

def test_injected_wall_clock_in_crawler_is_caught():
    source = (REPO_ROOT / "src/repro/crawler/frontier.py").read_text()
    assert analyze_source(source, "src/repro/crawler/frontier.py") == []
    sabotaged = source + (
        "\n\ndef _written_at() -> float:\n"
        "    import time\n"
        "    return time.time()\n"
    )
    findings = analyze_source(sabotaged, "src/repro/crawler/frontier.py")
    assert [f.code for f in findings] == ["DET001"]


def test_injected_laundered_wall_clock_in_crawler_caught_by_flow_only():
    """The issue's acceptance control: a two-hop laundered time.time()
    in a crawler module is DET101's catch and DET001's miss."""
    from repro.analysis.dataflow import analyze_project
    from repro.analysis.engine import ParsedModule

    path = "src/repro/crawler/frontier.py"
    source = (REPO_ROOT / path).read_text() + (
        "\n\nimport json as _json\n"
        "import time as _time\n\n"
        "_ts_source = _time.time\n\n\n"
        "def _stamp() -> float:\n"
        "    return _ts_source()\n\n\n"
        "def shard_banner(shard_id: int) -> str:\n"
        "    return _json.dumps({'shard': shard_id, 'at': _stamp()})\n"
    )
    # Per-file catalog: no DET001 anywhere in the sabotaged module.
    assert analyze_source(source, path) == []
    # Interprocedural pass: DET101 with the full chain.
    module = ParsedModule.from_source(source, path)
    findings = analyze_project([module])
    assert [f.code for f in findings] == ["DET101"]
    assert "time.time aliased as _ts_source" in findings[0].message
    assert "json.dumps" in findings[0].message


def test_injected_set_serialization_in_checkpoint_is_caught():
    source = (REPO_ROOT / "src/repro/crawler/checkpoint.py").read_text()
    assert analyze_source(source, "src/repro/crawler/checkpoint.py") == []
    sabotaged = source + (
        "\n\ndef to_state(ids: list) -> dict:\n"
        "    return {\"ids\": list(set(ids))}\n"
    )
    findings = analyze_source(sabotaged, "src/repro/crawler/checkpoint.py")
    assert "DET003" in {f.code for f in findings}
