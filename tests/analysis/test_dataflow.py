"""Interprocedural pass: fixtures, call-graph resolution, taint chains."""

from pathlib import Path

import pytest

from repro.analysis.callgraph import build_callgraph
from repro.analysis.dataflow import analyze_project, project_callgraph
from repro.analysis.engine import ParsedModule, analyze_paths, analyze_source
from repro.analysis.symbols import SymbolTable

FIXTURES = Path(__file__).parent / "fixtures"


def run_project_fixture(name: str) -> list:
    """All findings for one fixture, with the interprocedural pass on."""
    return analyze_paths([FIXTURES / name], root=FIXTURES, project=True)


def flow_codes(findings: list) -> list[tuple[str, int]]:
    return [(f.code, f.line) for f in findings]


def project_from_source(source: str, path: str = "mod.py") -> list:
    return analyze_project([ParsedModule.from_source(source, path)])


# ----------------------------------------------------------------------
# Fixture pairs.
# ----------------------------------------------------------------------

def test_det101_bad_fixture_flags_sink():
    findings = run_project_fixture("det101_bad.py")
    assert flow_codes(findings) == [("DET101", 22)]


def test_det101_good_fixture_clean():
    assert run_project_fixture("det101_good.py") == []


def test_det103_bad_fixture_flags_sink():
    findings = run_project_fixture("det103_bad.py")
    assert flow_codes(findings) == [("DET103", 21)]


def test_det103_good_fixture_clean():
    assert run_project_fixture("det103_good.py") == []


def test_conc102_bad_fixture_flags_sink():
    findings = run_project_fixture("det101_pid_bad.py")
    assert flow_codes(findings) == [("DET101", 22)]


def test_conc102_good_fixture_clean():
    assert run_project_fixture("det101_pid_good.py") == []


def test_seal001_bad_fixture_flags_post_seal_mutation():
    findings = run_project_fixture("seal001_bad.py")
    assert flow_codes(findings) == [("SEAL001", 29)]
    assert "add_user" in findings[0].message


def test_seal001_good_fixture_clean():
    assert run_project_fixture("seal001_good.py") == []


# ----------------------------------------------------------------------
# The acceptance control: flow catches what the per-file pass misses.
# ----------------------------------------------------------------------

def test_laundered_wall_clock_caught_by_flow_missed_by_per_file():
    source = (FIXTURES / "det101_bad.py").read_text()
    # Per-file catalog: blind to the alias call (no DET001).
    assert analyze_source(source) == []
    # Interprocedural pass: the full chain is caught and rendered.
    findings = run_project_fixture("det101_bad.py")
    assert [f.code for f in findings] == ["DET101"]
    message = findings[0].message
    assert "time.time" in message             # the source...
    assert "to_payload" in message            # ...the sink...
    assert message.count("->") >= 2           # ...and the hops between


def test_flow_finding_chain_renders_every_hop():
    findings = run_project_fixture("det101_bad.py")
    message = findings[0].message
    for fragment in ("aliased as _ts_source", "called through alias",
                     "via _stamp()", "serialized by to_payload()"):
        assert fragment in message, fragment


def test_dataclass_field_laundering_is_caught():
    """Taint through a dataclass field (not just a call chain)."""
    findings = run_project_fixture("det101_pid_bad.py")
    assert [f.code for f in findings] == ["DET101"]
    assert "os.getpid" in findings[0].message


def test_suppression_covers_flow_findings():
    source = (FIXTURES / "det101_bad.py").read_text().replace(
        "    return payload(_stamp())                # line 20: reaches the sink",
        "    # repro: allow DET101 boot banner, never compared bytes\n"
        "    return payload(_stamp())",
    )
    target = FIXTURES / "det101_bad.py"
    module = ParsedModule.from_source(source, str(target))
    findings = [
        f for f in analyze_project([module]) if not module.is_suppressed(f)
    ]
    assert findings == []


# ----------------------------------------------------------------------
# Call-graph resolution.
# ----------------------------------------------------------------------

def _table(*sources: tuple[str, str]) -> SymbolTable:
    modules = [
        ParsedModule.from_source(text, path) for path, text in sources
    ]
    return SymbolTable.build(modules)


def test_callgraph_resolves_aliased_imports():
    table = _table(
        ("src/repro/util.py", "def helper():\n    return 1\n"),
        ("src/repro/main.py",
         "from repro.util import helper as h\n"
         "def run():\n"
         "    return h()\n"),
    )
    graph = build_callgraph(table)
    sites = graph.callees("repro.main:run")
    assert [s.callee for s in sites] == ["repro.util:helper"]


def test_callgraph_resolves_methods_via_annotation():
    table = _table(
        ("src/repro/store.py",
         "class Store:\n"
         "    def add(self, x):\n"
         "        return x\n"),
        ("src/repro/main.py",
         "from repro.store import Store\n"
         "def run(store: Store):\n"
         "    store.add(1)\n"),
    )
    graph = build_callgraph(table)
    sites = graph.callees("repro.main:run")
    assert [s.callee for s in sites] == ["repro.store:Store.add"]


def test_callgraph_resolves_inherited_methods():
    table = _table(
        ("src/repro/base.py",
         "class Base:\n"
         "    def ping(self):\n"
         "        return 1\n"),
        ("src/repro/child.py",
         "from repro.base import Base\n"
         "class Child(Base):\n"
         "    pass\n"
         "def run(c: Child):\n"
         "    c.ping()\n"),
    )
    graph = build_callgraph(table)
    sites = graph.callees("repro.child:run")
    assert [s.callee for s in sites] == ["repro.base:Base.ping"]


def test_callgraph_resolves_constructor_assignment_receiver():
    table = _table(
        ("src/repro/main.py",
         "class Worker:\n"
         "    def go(self):\n"
         "        return 1\n"
         "def run():\n"
         "    w = Worker()\n"
         "    w.go()\n"),
    )
    graph = build_callgraph(table)
    callees = [s.callee for s in graph.callees("repro.main:run")]
    assert "repro.main:Worker.go" in callees


def test_callgraph_shortest_caller_chain_is_deterministic():
    table = _table(
        ("src/repro/main.py",
         "def leaf():\n"
         "    return 1\n"
         "def mid():\n"
         "    return leaf()\n"
         "def top():\n"
         "    return mid()\n"),
    )
    graph = build_callgraph(table)
    chain = graph.shortest_caller_chain("repro.main:leaf")
    assert [s.caller for s in chain] == ["repro.main:top", "repro.main:mid"]


def test_callgraph_payload_and_dot_are_deterministic():
    modules = [ParsedModule.from_source(
        "def a():\n    return b()\n\ndef b():\n    return 1\n",
        "src/repro/m.py",
    )]
    graph = project_callgraph(modules)
    payload = graph.to_payload()
    assert payload["version"] == 1
    assert payload == project_callgraph(modules).to_payload()
    assert graph.to_dot() == project_callgraph(modules).to_dot()
    assert '"repro.m:a" -> "repro.m:b"' in graph.to_dot()


# ----------------------------------------------------------------------
# Taint mechanics worth pinning down.
# ----------------------------------------------------------------------

def test_sorted_neutralizes_set_order():
    findings = project_from_source(
        "def to_payload(members: set) -> dict:\n"
        "    return {'m': sorted(members)}\n"
    )
    assert findings == []


def test_set_order_dropped_by_set_comprehension_target():
    # Rebuilding a set from a set does not launder *order* into bytes.
    findings = project_from_source(
        "def to_payload(members: set) -> dict:\n"
        "    return {'m': sorted({m for m in members})}\n"
    )
    assert findings == []


def test_json_dumps_is_a_sink_anywhere():
    findings = project_from_source(
        "import json, os\n"
        "def banner() -> str:\n"
        "    return json.dumps({'pid': os.getpid()})\n"
    )
    assert [f.code for f in findings] == ["DET101"]


def test_os_entropy_and_parent_pid_reach_the_sink():
    """Each value differs on every run; all three reach one payload."""
    findings = project_from_source(
        "import json, os, uuid\n"
        "def to_payload() -> str:\n"
        "    return json.dumps({'id': str(uuid.uuid4()),\n"
        "                       'salt': os.urandom(4).hex(),\n"
        "                       'ppid': os.getppid()})\n"
    )
    messages = sorted(f.message for f in findings)
    assert [f.code for f in findings] == ["DET101", "DET101"]
    assert "process id" in messages[0] and "os.getppid()" in messages[0]
    assert "unseeded-RNG" in messages[1]


@pytest.mark.parametrize("source", [
    "uuid.uuid1()", "uuid.uuid4()", "os.urandom(4)", "os.getppid()",
    "secrets.token_hex(4)", "secrets.choice('ab')",
])
def test_every_entropy_source_is_tracked(source):
    findings = project_from_source(
        "import json, os, secrets, uuid\n"
        "def to_payload() -> str:\n"
        f"    return json.dumps({{'v': str({source})}})\n"
    )
    assert [f.code for f in findings] == ["DET101"]
    assert source.split("(")[0] + "()" in findings[0].message


def test_clock_module_sources_are_tracked():
    """A host-clock read in the clock module taints what it reaches."""
    findings = project_from_source(
        "import json, time\n"
        "def stamp() -> str:\n"
        "    return json.dumps({'at': time.monotonic()})\n",
        path="src/repro/net/clock.py",
    )
    assert [f.code for f in findings] == ["DET101"]

