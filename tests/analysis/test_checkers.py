"""Each checker against its known-good / known-bad fixture pair."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.engine import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name: str) -> list:
    """All findings for one fixture file, paths relative to fixtures/."""
    return analyze_paths([FIXTURES / name], root=FIXTURES)


def lines_for(findings: list, code: str) -> list[int]:
    return [f.line for f in findings if f.code == code]


# ----------------------------------------------------------------------
# DET001 — wall-clock access.
# ----------------------------------------------------------------------

def test_det001_bad_flags_every_wall_clock_read():
    findings = run_fixture("det001_bad.py")
    assert lines_for(findings, "DET001") == [9, 13, 17, 21]


def test_det001_good_is_clean():
    assert run_fixture("det001_good.py") == []


def test_det001_has_no_exempt_module():
    """The clock module reads no host clock, so it gets no exemption."""
    source = "import time\n\n\ndef now() -> float:\n    return time.monotonic()\n"
    findings = analyze_source(source, "src/repro/net/clock.py")
    assert [(f.code, f.line) for f in findings] == [("DET001", 5)]


def test_det001_findings_carry_hint_and_message():
    (first, *_rest) = run_fixture("det001_bad.py")
    assert first.code == "DET001"
    assert "clock" in first.hint.lower()
    assert "time.time" in first.message


# ----------------------------------------------------------------------
# DET002 — unseeded randomness.
# ----------------------------------------------------------------------

def test_det002_bad_flags_every_unseeded_rng():
    findings = run_fixture("det002_bad.py")
    assert lines_for(findings, "DET002") == [12, 16, 20, 24, 28, 32, 36, 40]


def test_det002_good_is_clean():
    assert run_fixture("det002_good.py") == []


# ----------------------------------------------------------------------
# DET003 — unordered iteration.
# ----------------------------------------------------------------------

def test_det003_bad_flags_every_unordered_iteration():
    findings = run_fixture("det003_bad.py")
    assert lines_for(findings, "DET003") == [6, 11, 17, 21, 25, 33]


def test_det003_good_is_clean():
    assert run_fixture("det003_good.py") == []


def test_det003_flags_sets_built_inside_serializers():
    findings = run_fixture("det003_serializer_bad.py")
    assert [(f.line, f.col) for f in findings if f.code == "DET003"] == [
        (13, 24), (14, 27),
    ]


def test_det003_serializer_good_is_clean():
    assert run_fixture("det003_serializer_good.py") == []


# ----------------------------------------------------------------------
# CHK001 — checkpoint schema drift (project-level pass).
# ----------------------------------------------------------------------

def test_chk001_bad_flags_unregistered_fields():
    findings = run_fixture("chk001_bad.py")
    chk = [f for f in findings if f.code == "CHK001"]
    assert [f.line for f in chk] == [10, 20]
    assert "StageCursor.retries" in chk[0].message
    assert "CrawledUser.badge" in chk[1].message


def test_chk001_good_is_clean():
    assert run_fixture("chk001_good.py") == []


# ----------------------------------------------------------------------
# CHK002 — store codec drift (project-level pass).
# ----------------------------------------------------------------------

def test_chk002_bad_flags_unencoded_fields():
    findings = run_fixture("chk002_bad.py")
    chk = [f for f in findings if f.code == "CHK002"]
    assert [f.line for f in chk] == [11, 17]
    assert "CrawledComment.shadow_label" in chk[0].message
    assert "CrawledUser.bio" in chk[1].message
    assert "codec" in chk[0].hint


def test_chk002_good_is_clean():
    assert run_fixture("chk002_good.py") == []


def test_chk002_silent_without_codec_functions():
    """A record dataclass alone (no codecs in scope) never fires."""
    findings = run_fixture("chk001_bad.py")
    assert [f for f in findings if f.code == "CHK002"] == []


LIVE = Path(__file__).resolve().parents[2] / "src" / "repro"
_LIVE_CODEC_FILES = ("crawler/records.py", "store/codecs.py", "store/columns.py")


def _live_codec_findings(tmp_path, drop: str = "") -> list:
    """CHK002/CHK003 findings over copies of the live slotted records,
    codecs and projection spec, with every line containing ``drop``
    removed from the codecs."""
    for rel in _LIVE_CODEC_FILES:
        text = (LIVE / rel).read_text(encoding="utf-8")
        if rel == "store/codecs.py" and drop:
            kept = [line for line in text.splitlines() if drop not in line]
            assert len(kept) < len(text.splitlines())
            text = "\n".join(kept) + "\n"
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    findings = analyze_paths([tmp_path], root=tmp_path)
    return [f for f in findings if f.code in ("CHK002", "CHK003")]


def test_chk002_chk003_check_the_live_slotted_records(tmp_path):
    assert "@dataclass(slots=True)" in (LIVE / "crawler/records.py").read_text()
    assert _live_codec_findings(tmp_path) == []
    findings = _live_codec_findings(tmp_path, drop='"view_filters"')
    messages = sorted((f.code, f.message) for f in findings)
    assert [code for code, _ in messages] == ["CHK002", "CHK003"]
    assert all("CrawledUser.view_filters" in message for _, message in messages)


# ----------------------------------------------------------------------
# CHK003 — column projection schema drift (project-level pass).
# ----------------------------------------------------------------------

def test_chk003_bad_flags_unpersisted_projected_fields():
    findings = run_fixture("chk003_bad.py")
    chk = [f for f in findings if f.code == "CHK003"]
    assert [f.line for f in chk] == [10, 12]
    assert "CrawledComment.shadow_label" in chk[0].message
    assert "CrawledUser.permissions" in chk[1].message
    assert "codec" in chk[0].hint


def test_chk003_good_is_clean():
    assert run_fixture("chk003_good.py") == []


def test_chk003_silent_without_codec_functions():
    """A PROJECTION_SPEC alone (no codecs in scope) never fires."""
    findings = run_fixture("chk001_bad.py")
    assert [f for f in findings if f.code == "CHK003"] == []


# ----------------------------------------------------------------------
# Suppressions fixture: valid, reasonless, unknown-code.
# ----------------------------------------------------------------------

def test_suppression_fixture():
    findings = run_fixture("suppressions.py")
    by_code = {}
    for f in findings:
        by_code.setdefault(f.code, []).append(f.line)
    # Line 8's DET001 is validly suppressed; line 12's is not (no reason).
    assert by_code.get("DET001") == [12]
    # Line 16's suppression names an unknown code, so DET003 still fires.
    assert by_code.get("DET003") == [17]
    # SUP001: reasonless (line 12) and unknown-code (line 16).
    assert by_code.get("SUP001") == [12, 16]


# ----------------------------------------------------------------------
# Catalog coherence.
# ----------------------------------------------------------------------

def test_catalog_codes_are_unique_and_documented():
    from repro.analysis.checkers import CATALOG, PROJECT_CATALOG, known_codes
    from repro.analysis.dataflow import FLOW_CATALOG

    checkers = [*CATALOG, *PROJECT_CATALOG, *FLOW_CATALOG]
    codes = [c.code for c in checkers]
    assert len(codes) == len(set(codes))
    for checker in checkers:
        assert checker.rationale, checker.code
        assert checker.hint, checker.code
    assert set(codes) | {"SUP001", "SUP002"} == known_codes()


@pytest.mark.parametrize(
    "bad, good",
    [
        ("det001_bad.py", "det001_good.py"),
        ("det002_bad.py", "det002_good.py"),
        ("det003_bad.py", "det003_good.py"),
        ("det003_serializer_bad.py", "det003_serializer_good.py"),
        ("chk001_bad.py", "chk001_good.py"),
        ("chk002_bad.py", "chk002_good.py"),
        ("chk003_bad.py", "chk003_good.py"),
    ],
)
def test_every_bad_fixture_finds_something_good_finds_nothing(bad, good):
    assert run_fixture(bad)
    assert run_fixture(good) == []
