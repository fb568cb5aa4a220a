"""``src/repro`` is single-threaded by construction.

Every fetch lane runs on the calling thread (DESIGN §8), and the crawl's
stats objects are plain counters with no lock.  That holds only while no
module can start a thread, a process or an event loop, so this test
fails on any import of such a module.  Concurrency that comes back must
bring its own guard for the state it shares.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = (
    "threading", "_thread", "multiprocessing", "concurrent.futures", "asyncio",
)


def concurrency_imports(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each import statement naming a FORBIDDEN module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            # ``from concurrent import futures`` names the module as an alias.
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        hits = [
            name for name in names
            if any(name == m or name.startswith(m + ".") for m in FORBIDDEN)
        ]
        if hits:
            found.append((node.lineno, hits[0]))
    return found


def test_src_repro_imports_no_concurrency_module():
    probe = (
        "import threading\n"
        "import multiprocessing.pool as mp\n"
        "from concurrent import futures\n"
        "from _thread import start_new_thread\n"
        "import asyncio, json\n"
    )
    assert [line for line, _ in concurrency_imports(probe)] == [1, 2, 3, 4, 5]

    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 100
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in concurrency_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
