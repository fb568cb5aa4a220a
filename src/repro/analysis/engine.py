"""Analysis engine: parsing, suppression comments, and the run loop.

A :class:`ParsedModule` bundles one file's path, AST and per-line
suppressions; :func:`analyze_paths` parses every file once, runs each
checker from the catalog over each module (plus the project-level pass
over all modules together), applies suppressions, and returns the
surviving findings sorted by location.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

__all__ = [
    "Finding",
    "ParsedModule",
    "Suppression",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "parse_modules",
]

# ``# repro: allow DET003 <reason>`` — one or more codes, comma-separated,
# then a mandatory free-text reason (suppressions without a reason are
# themselves reported, as SUP001).  Anchored to the start of the comment
# token so prose *mentioning* the syntax (like this block) never
# registers as a suppression.
_SUPPRESS_RE = re.compile(
    r"^#\s*repro:\s*allow\s+([A-Z]+\d{3}(?:\s*,\s*[A-Z]+\d{3})*)(.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One checker hit.

    Attributes:
        code: stable checker code ("DET001", ...).
        path: file path as reported (relative when possible).
        line: 1-based line of the offending node.
        col: 0-based column.
        message: what is wrong, specifically.
        hint: the checker's fix-it hint.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1} {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class Suppression:
    """One ``# repro: allow`` comment."""

    line: int
    codes: tuple[str, ...]
    reason: str
    #: the comment is the whole line, so it also covers the next line
    standalone: bool = False
    used: bool = False


@dataclass
class ParsedModule:
    """One parsed source file, ready for checkers."""

    path: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str, path: str) -> "ParsedModule":
        """Parse source text; raises SyntaxError on unparsable input."""
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            tree=tree,
            suppressions=list(_parse_suppressions(source)),
        )

    def finding(
        self, code: str, node: ast.AST, message: str, hint: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return self.finding_at(code, line, col, message, hint)

    def finding_at(
        self, code: str, line: int, col: int, message: str, hint: str
    ) -> Finding:
        """Build a finding anchored at an explicit line/col."""
        return Finding(
            code=code,
            path=self.path,
            line=line,
            col=col,
            message=message,
            hint=hint,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an in-scope suppression covers the finding.

        A suppression covers its own physical line and, when it is a
        standalone comment line, the next line — so wide expressions can
        carry the annotation just above instead of overflowing the line.
        """
        for suppression in self.suppressions:
            if finding.code not in suppression.codes:
                continue
            if not suppression.reason:
                continue   # reasonless suppressions never fire (SUP001)
            if suppression.line == finding.line or (
                suppression.standalone
                and suppression.line + 1 == finding.line
            ):
                suppression.used = True
                return True
        return False


def _parse_suppressions(source: str) -> Iterator[Suppression]:
    """Scan comments for ``# repro: allow`` annotations via tokenize."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(
                code.strip() for code in match.group(1).split(",")
            )
            yield Suppression(
                line=token.start[0],
                codes=codes,
                reason=match.group(2).strip(),
                standalone=token.line.lstrip().startswith("#"),
            )
    except tokenize.TokenError:
        return


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.extend(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            seen.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return iter(sorted(set(seen), key=lambda p: str(p)))


def _display_path(path: Path, root: Path | None) -> str:
    """Path as reported in findings: root-relative posix when possible."""
    resolved = path.resolve()
    base = (root or Path.cwd()).resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


def _module_findings(modules: list[ParsedModule]) -> list[Finding]:
    """The per-module catalog plus SUP001, before suppression."""
    from repro.analysis.checkers import CATALOG

    findings: list[Finding] = []
    for module in modules:
        for checker in CATALOG:
            findings.extend(checker.check(module))
        findings.extend(_suppression_hygiene(module))
    return findings


def _stale_suppressions(modules: list[ParsedModule]) -> list[Finding]:
    """SUP002: ``# repro: allow`` comments that suppressed nothing.

    Reasonless or unknown-code suppressions are SUP001's business and
    are skipped here; everything else that did not fire is dead weight
    the suppression surface must shed.
    """
    from repro.analysis.checkers import known_codes

    catalog = known_codes()
    findings = []
    for module in modules:
        for suppression in module.suppressions:
            if suppression.used or not suppression.reason:
                continue
            if any(code not in catalog for code in suppression.codes):
                continue
            findings.append(module.finding_at(
                "SUP002",
                suppression.line,
                0,
                f"suppression of {', '.join(suppression.codes)} matches "
                f"no finding — the checker no longer fires here",
                "delete the stale '# repro: allow' comment",
            ))
    return findings


def _suppression_hygiene(module: ParsedModule) -> Iterator[Finding]:
    """SUP001: suppressions must carry a reason and known codes."""
    from repro.analysis.checkers import known_codes

    catalog = known_codes()
    for suppression in module.suppressions:
        anchor = ast.Module(body=[], type_ignores=[])
        anchor.lineno = suppression.line          # type: ignore[attr-defined]
        anchor.col_offset = 0                     # type: ignore[attr-defined]
        if not suppression.reason:
            yield module.finding(
                "SUP001",
                anchor,
                f"suppression of {', '.join(suppression.codes)} has no "
                f"reason — write '# repro: allow {suppression.codes[0]} "
                f"<why this is safe>'",
                "a reasonless suppression never fires; state why the "
                "finding is acceptable",
            )
        unknown = [c for c in suppression.codes if c not in catalog]
        if unknown:
            yield module.finding(
                "SUP001",
                anchor,
                f"suppression names unknown checker code(s): "
                f"{', '.join(unknown)}",
                "use a code from `python -m repro.analysis --list-checkers`",
            )


def analyze_source(
    source: str, path: str = "<string>"
) -> list[Finding]:
    """Run the full per-module catalog over one source string.

    Project-level checkers (CHK001) need the whole tree and are skipped.
    """
    module = ParsedModule.from_source(source, path)
    findings = _module_findings([module])
    kept = [f for f in findings if not module.is_suppressed(f)]
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    return kept


def parse_modules(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
) -> list[ParsedModule]:
    """Parse every file under ``paths`` in deterministic path order.

    Raises:
        SyntaxError: a file does not parse (the tree must at least
            compile before it can be analyzed).
    """
    root_path = Path(root) if root is not None else None
    modules = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        modules.append(
            ParsedModule.from_source(
                source, _display_path(file_path, root_path)
            )
        )
    return modules


def analyze_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    *,
    project: bool = False,
) -> list[Finding]:
    """Parse and check every file under ``paths``.

    Args:
        paths: files and/or directories.
        root: base for relative finding paths (default: cwd).
        project: also run the interprocedural passes (symbol table,
            call graph, taint dataflow, SEAL001).

    Returns:
        The unsuppressed findings plus SUP002 hygiene findings, sorted
        by location.

    Raises:
        SyntaxError: a file does not parse (the tree must at least
            compile before it can be linted).
    """
    from repro.analysis.checkers import PROJECT_CATALOG

    modules = parse_modules(paths, root)
    findings = _module_findings(modules)
    for checker in PROJECT_CATALOG:
        findings.extend(checker.check_project(modules))
    if project:
        from repro.analysis.dataflow import analyze_project

        findings.extend(analyze_project(modules))
    by_path = {module.path: module for module in modules}
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            continue
        kept.append(finding)
    kept.extend(_stale_suppressions(modules))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept
