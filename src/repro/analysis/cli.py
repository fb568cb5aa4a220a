"""``python -m repro.analysis`` — the lint suite's command line.

Exit codes follow CI conventions: 0 when the tree is clean (modulo
``# repro: allow`` suppressions), 1 when findings exist, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.checkers import CATALOG, PROJECT_CATALOG
from repro.analysis.engine import Finding, analyze_paths, parse_modules

__all__ = ["build_parser", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based determinism lint suite enforcing the "
            "reproduction's bit-identity invariants."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated checker codes to report (default: all)",
    )
    parser.add_argument(
        "--list-checkers", action="store_true",
        help="print the checker catalog (code, rationale, hint) and exit",
    )
    parser.add_argument(
        "--project", action="store_true",
        help="also run the interprocedural passes (call graph, "
             "nondeterminism taint, SEAL001)",
    )
    parser.add_argument(
        "--dump-callgraph", type=Path, default=None, metavar="PATH",
        help="write the project call graph to PATH (Graphviz dot when "
             "PATH ends with .dot, JSON otherwise; '-' for stdout) "
             "and exit",
    )
    return parser


def _list_checkers(stream) -> None:
    from repro.analysis.dataflow import FLOW_CATALOG

    for checker in [*CATALOG, *PROJECT_CATALOG, *FLOW_CATALOG]:
        print(f"{checker.code}  {checker.name}", file=stream)
        print(f"    why:  {checker.rationale}", file=stream)
        print(f"    fix:  {checker.hint}", file=stream)
    print("SUP001  malformed suppression", file=stream)
    print(
        "    why:  a suppression without a reason (or with an unknown "
        "code) hides nothing and documents nothing",
        file=stream,
    )
    print(
        "    fix:  write '# repro: allow <CODE> <reason>' with a real "
        "code and reason",
        file=stream,
    )
    print("SUP002  stale suppression", file=stream)
    print(
        "    why:  a suppression matching no finding widens the accepted "
        "surface for free",
        file=stream,
    )
    print("    fix:  delete the comment", file=stream)


def _default_paths() -> list[str]:
    candidate = Path("src/repro")
    if candidate.is_dir():
        return [str(candidate)]
    raise SystemExit(
        "no paths given and ./src/repro does not exist "
        "(run from the repo root or pass paths)"
    )


def _emit(findings: list[Finding], fmt: str, stream) -> None:
    if fmt == "json":
        payload = {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
        }
        print(json.dumps(payload, indent=2), file=stream)
        return
    for finding in findings:
        print(finding.render(), file=stream)
        print(f"    hint: {finding.hint}", file=stream)
    if findings:
        print(f"{len(findings)} finding(s)", file=stream)
    else:
        print("clean: no findings", file=stream)


def _dump_callgraph(paths: list[str], target: Path) -> int:
    from repro.analysis.dataflow import project_callgraph

    try:
        modules = parse_modules(paths)
    except (FileNotFoundError, ValueError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    graph = project_callgraph(modules)
    if str(target).endswith(".dot"):
        text = graph.to_dot()
    else:
        text = json.dumps(graph.to_payload(), indent=2, sort_keys=True) + "\n"
    if str(target) == "-":
        sys.stdout.write(text)
    else:
        target.write_text(text, encoding="utf-8")
        print(f"call graph written to {target}")
    return EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    """Run the suite; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_checkers:
        _list_checkers(sys.stdout)
        return EXIT_CLEAN
    paths = args.paths or _default_paths()
    if args.dump_callgraph is not None:
        return _dump_callgraph(paths, args.dump_callgraph)
    try:
        findings = analyze_paths(paths, project=args.project)
    except (FileNotFoundError, ValueError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.select:
        wanted = {code.strip() for code in args.select.split(",")}
        findings = [f for f in findings if f.code in wanted]
    _emit(findings, args.format, sys.stdout)
    return EXIT_FINDINGS if findings else EXIT_CLEAN
