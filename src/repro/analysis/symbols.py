"""Project symbol table: modules, classes, functions, receiver types.

The per-file checkers in :mod:`repro.analysis.checkers` are deliberately
syntactic; the interprocedural passes (call graph, taint dataflow, the
lock/seal state machines) need one level more: *which function does this
call actually reach*.  This module answers that with a whole-program
symbol table built from the already-parsed modules:

* **module naming** — ``src/repro/crawler/frontier.py`` becomes
  ``repro.crawler.frontier``; loose files (fixtures) use their stem;
* **import resolution** — ``import``/``from`` aliases, including
  relative imports resolved against the importing module's package;
* **receiver types** — a deliberately shallow inference good enough for
  this tree's annotated code: parameter/variable annotations,
  ``x = ClassName(...)`` constructor assignments, dataclass field and
  ``self.attr = ClassName(...)`` attribute types, return annotations.

Everything is resolved by *name* against the analyzed file set only:
stdlib and third-party targets stay as dotted strings, which is exactly
what the taint source tables key on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:   # pragma: no cover - types only
    from repro.analysis.engine import ParsedModule

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "SymbolTable",
    "module_name_for_path",
]

_SET_NAMES = frozenset({
    "set", "frozenset", "Set", "AbstractSet", "FrozenSet", "MutableSet",
})


def module_name_for_path(path: str) -> str:
    """Dotted module name for a reported (posix) file path.

    ``src/repro/store/codecs.py`` and ``repro/store/codecs.py`` both map
    to ``repro.store.codecs``; ``__init__.py`` maps to its package; a
    loose file (a test fixture) maps to its stem.
    """
    parts = [part for part in path.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["__init__"]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str                       # "repro.store.corpus:CorpusStore.seal"
    module: str                      # owning module name
    path: str                        # reported file path
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None    # set for methods

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition with what the dataflow passes need."""

    qname: str                       # "repro.net.client:ClientStats"
    module: str
    name: str
    node: ast.ClassDef
    base_names: tuple[str, ...] = ()         # unresolved base identifiers
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> annotation/constructor type name (unresolved)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute names known to hold sets
    set_attrs: set[str] = field(default_factory=set)
    is_dataclass: bool = False


@dataclass
class ModuleInfo:
    """One analyzed module."""

    name: str
    path: str
    tree: ast.Module
    #: local alias -> absolute dotted origin ("np" -> "numpy",
    #: "encode_user" -> "repro.store.codecs.encode_user")
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _annotation_name(annotation: ast.expr | None) -> str | None:
    """Flat type name of an annotation: ``CorpusStore``, ``set``, ...

    Unions take the *first* project-resolvable-looking alternative later;
    here every alternative is surfaced via :func:`_annotation_names`.
    """
    names = _annotation_names(annotation)
    return names[0] if names else None


def _annotation_names(annotation: ast.expr | None) -> list[str]:
    """All flat type names an annotation may denote (unions expanded)."""
    if annotation is None:
        return []
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: "CorpusStore | None", "set[str]".
        text = node.value
        return [
            part.split("[", 1)[0].strip().rsplit(".", 1)[-1]
            for part in text.split("|")
            if part.split("[", 1)[0].strip()
        ]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_names(node.left) + _annotation_names(node.right)
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base in ("Optional", "Final", "ClassVar", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_names(inner)
        return [base] if base else []
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def annotation_is_set(annotation: ast.expr | None) -> bool:
    return any(name in _SET_NAMES for name in _annotation_names(annotation))


def _build_imports(tree: ast.Module, module_name: str) -> dict[str, str]:
    """Local alias -> absolute dotted origin, relative imports resolved."""
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; attribute chains are
                    # resolved lazily from the bare root.
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative: climb ``level`` packages from this module.
                anchor = module_name.split(".")
                anchor = anchor[: max(len(anchor) - node.level, 0)] or (
                    package.split(".") if package else []
                )
                prefix = ".".join(anchor)
                base = f"{prefix}.{base}".strip(".") if base else prefix
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{base}.{alias.name}"
    return mapping


def _collect_class(
    module: "ModuleInfo", node: ast.ClassDef
) -> ClassInfo:
    from repro.analysis.checkers import _is_dataclass

    info = ClassInfo(
        qname=f"{module.name}:{node.name}",
        module=module.name,
        name=node.name,
        node=node,
        base_names=tuple(
            name
            for base in node.bases
            for name in _annotation_names(base)
        ),
        is_dataclass=_is_dataclass(node),
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = FunctionInfo(
                qname=f"{module.name}:{node.name}.{stmt.name}",
                module=module.name,
                path=module.path,
                node=stmt,
                class_name=node.name,
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            type_name = _annotation_name(stmt.annotation)
            if type_name:
                info.attr_types[stmt.target.id] = type_name
            if annotation_is_set(stmt.annotation):
                info.set_attrs.add(stmt.target.id)
            if isinstance(stmt.value, ast.Call):
                for kw in stmt.value.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                    ):
                        info.attr_types[stmt.target.id] = kw.value.id
                        if kw.value.id in ("set", "frozenset"):
                            info.set_attrs.add(stmt.target.id)
    # ``self.attr = ClassName(...)`` / annotated attribute assignments in
    # method bodies (constructors mostly, but any method counts).
    for method in info.methods.values():
        for sub in ast.walk(method.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, annotation = sub.target, sub.value, sub.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if annotation is not None:
                type_name = _annotation_name(annotation)
                if type_name:
                    info.attr_types.setdefault(target.attr, type_name)
                if annotation_is_set(annotation):
                    info.set_attrs.add(target.attr)
            if isinstance(value, ast.Call):
                ctor = value.func
                ctor_name = None
                if isinstance(ctor, ast.Name):
                    ctor_name = ctor.id
                elif isinstance(ctor, ast.Attribute):
                    ctor_name = ctor.attr
                if ctor_name:
                    info.attr_types.setdefault(target.attr, ctor_name)
                    if ctor_name in ("set", "frozenset"):
                        info.set_attrs.add(target.attr)
            elif isinstance(value, (ast.Set, ast.SetComp)):
                info.set_attrs.add(target.attr)
    return info


class SymbolTable:
    """All modules of one analysis run, indexed for resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: flat class name -> ClassInfo (first definition wins; the tree
        #: has no duplicate public class names that matter here)
        self._classes_by_name: dict[str, ClassInfo] = {}
        #: function qname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence["ParsedModule"]) -> "SymbolTable":
        table = cls()
        for parsed in modules:
            name = module_name_for_path(parsed.path)
            info = ModuleInfo(name=name, path=parsed.path, tree=parsed.tree)
            info.imports = _build_imports(parsed.tree, name)
            for node in parsed.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.functions[node.name] = FunctionInfo(
                        qname=f"{name}:{node.name}",
                        module=name,
                        path=parsed.path,
                        node=node,
                    )
                elif isinstance(node, ast.ClassDef):
                    info.classes[node.name] = _collect_class(info, node)
            table.modules[name] = info
        for info in table.modules.values():
            for function in info.functions.values():
                table.functions[function.qname] = function
            for class_info in info.classes.values():
                table._classes_by_name.setdefault(class_info.name, class_info)
                for method in class_info.methods.values():
                    table.functions[method.qname] = method
        return table

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function/method, in deterministic qname order."""
        for qname in sorted(self.functions):
            yield self.functions[qname]

    def module_attr(self, dotted: str) -> FunctionInfo | ClassInfo | None:
        """Resolve an absolute dotted origin to a project symbol.

        ``repro.store.codecs.encode_user`` finds the function;
        ``repro.net.client.ClientStats`` finds the class; anything not in
        the analyzed file set returns None.
        """
        if "." not in dotted:
            return None
        module_name, attr = dotted.rsplit(".", 1)
        module = self.modules.get(module_name)
        if module is None:
            return None
        if attr in module.functions:
            return module.functions[attr]
        if attr in module.classes:
            return module.classes[attr]
        # Re-exported name: follow one import hop.
        origin = module.imports.get(attr)
        if origin is not None and origin != dotted:
            return self.module_attr(origin)
        return None

    def resolve_method(
        self, class_name: str, method: str
    ) -> FunctionInfo | None:
        """Find ``method`` on ``class_name`` or its (project) bases."""
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self._classes_by_name.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.base_names)
        return None

    def mro_attr_type(self, class_name: str, attr: str) -> str | None:
        """Attribute type name on ``class_name`` or its (project) bases."""
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self._classes_by_name.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            queue.extend(info.base_names)
        return None

    def mro_attr_is_set(self, class_name: str, attr: str) -> bool:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self._classes_by_name.get(current)
            if info is None:
                continue
            if attr in info.set_attrs:
                return True
            queue.extend(info.base_names)
        return False

    # ------------------------------------------------------------------
    # Expression resolution inside one function.
    # ------------------------------------------------------------------

    def resolve_dotted(
        self, expr: ast.expr, imports: dict[str, str]
    ) -> str | None:
        """Absolute dotted origin of a Name/Attribute chain, or None.

        Mirrors the per-file checkers' ``_resolve`` but against the
        symbol table's absolute import map, so ``from repro.store import
        codecs; codecs.encode_user`` resolves fully.
        """
        if isinstance(expr, ast.Name):
            return imports.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.resolve_dotted(expr.value, imports)
            if base is not None:
                return f"{base}.{expr.attr}"
        return None
