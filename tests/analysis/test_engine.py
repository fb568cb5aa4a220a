"""Engine mechanics: suppressions, SUP001/SUP002, output shapes."""

from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.engine import Finding, ParsedModule, iter_python_files


# ----------------------------------------------------------------------
# Suppression scope.
# ----------------------------------------------------------------------

def test_same_line_suppression_with_reason_fires():
    findings = analyze_source(
        "import time\n"
        "t = time.time()  # repro: allow DET001 diagnostics only\n"
    )
    assert findings == []


def test_preceding_comment_line_suppression_covers_next_line():
    findings = analyze_source(
        "import time\n"
        "# repro: allow DET001 diagnostics only\n"
        "t = time.time()\n"
    )
    assert findings == []


def test_suppression_does_not_reach_two_lines_down():
    findings = analyze_source(
        "import time\n"
        "# repro: allow DET001 diagnostics only\n"
        "x = 1\n"
        "t = time.time()\n"
    )
    assert [f.code for f in findings] == ["DET001"]


def test_trailing_suppression_does_not_cover_next_line():
    findings = analyze_source(
        "import time\n"
        "x = 1  # repro: allow DET001 diagnostics only\n"
        "t = time.time()\n"
    )
    assert [f.code for f in findings] == ["DET001"]


def test_suppression_is_code_specific():
    findings = analyze_source(
        "import time\n"
        "t = time.time()  # repro: allow DET003 wrong code entirely\n"
    )
    assert [f.code for f in findings] == ["DET001"]


def test_multi_code_suppression():
    findings = analyze_source(
        "import time, random\n"
        "t = time.time() + random.random()"
        "  # repro: allow DET001, DET002 fixture exercising both\n"
    )
    assert findings == []


def test_reasonless_suppression_reports_sup001_and_does_not_fire():
    findings = analyze_source(
        "import time\n"
        "t = time.time()  # repro: allow DET001\n"
    )
    assert sorted(f.code for f in findings) == ["DET001", "SUP001"]


def test_unknown_code_suppression_reports_sup001():
    findings = analyze_source(
        "x = 1  # repro: allow ABC123 there is no such checker\n"
    )
    assert [f.code for f in findings] == ["SUP001"]
    assert "ABC123" in findings[0].message


# ----------------------------------------------------------------------
# Finding / ParsedModule surface.
# ----------------------------------------------------------------------

def test_finding_render_and_dict_round_trip():
    finding = Finding(
        code="DET001", path="a/b.py", line=3, col=4,
        message="m", hint="h",
    )
    assert finding.render() == "a/b.py:3:5 DET001 m"
    payload = finding.to_dict()
    assert payload["line"] == 3 and payload["col"] == 4
    assert Finding(**payload) == finding


def test_parsed_module_rejects_syntax_errors():
    with pytest.raises(SyntaxError):
        ParsedModule.from_source("def broken(:\n", "bad.py")


def test_findings_sorted_by_location():
    findings = analyze_source(
        "import time, random\n"
        "b = random.random()\n"
        "a = time.time()\n"
    )
    assert [(f.line, f.code) for f in findings] == [
        (2, "DET002"), (3, "DET001"),
    ]


# ----------------------------------------------------------------------
# SUP002 — the suppression surface may only shrink.
# ----------------------------------------------------------------------

def _analyze_file(tmp_path: Path, source: str):
    from repro.analysis.engine import analyze_paths

    target = tmp_path / "module.py"
    target.write_text(source)
    return analyze_paths([target], root=tmp_path)


def test_stale_suppression_reports_sup002(tmp_path: Path):
    findings = _analyze_file(
        tmp_path,
        "x = 1  # repro: allow DET001 left over from a removed call\n",
    )
    assert [(f.code, f.line) for f in findings] == [("SUP002", 1)]
    assert "matches no finding" in findings[0].message


def test_used_suppression_is_not_stale(tmp_path: Path):
    findings = _analyze_file(
        tmp_path,
        "import time\n"
        "t = time.time()  # repro: allow DET001 diagnostics only\n",
    )
    assert findings == []


def test_reasonless_suppression_is_sup001_not_sup002(tmp_path: Path):
    findings = _analyze_file(
        tmp_path, "import time\nt = time.time()  # repro: allow DET001\n"
    )
    assert sorted(f.code for f in findings) == ["DET001", "SUP001"]


def test_prose_mentioning_the_syntax_is_not_a_suppression(tmp_path: Path):
    findings = _analyze_file(
        tmp_path,
        "# about ``# repro: allow DET003 <reason>`` comments\n"
        "x = 1\n",
    )
    assert findings == []


def test_analyze_source_does_not_report_sup002():
    # Single-string analysis is for editors/tests; only full runs
    # police the suppression surface.
    findings = analyze_source(
        "x = 1  # repro: allow DET001 left over from a removed call\n"
    )
    assert findings == []


# ----------------------------------------------------------------------
# File discovery.
# ----------------------------------------------------------------------

def test_iter_python_files_sorted_and_skips_pycache(tmp_path: Path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    names = [p.name for p in iter_python_files([tmp_path])]
    assert names == ["a.py", "b.py"]


def test_iter_python_files_rejects_non_python_file(tmp_path: Path):
    target = tmp_path / "notes.txt"
    target.write_text("hi\n")
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([target]))
