"""The checker catalog.

Every checker targets one repo-specific invariant behind the
bit-identity guarantee (corpus/stats/checkpoints identical across
``--connections`` and kill→resume chains):

========  ==============================================================
DET001    wall-clock access (components take an injected ``Clock``)
DET002    unseeded randomness or OS entropy (``random``, ``secrets``,
          numpy global state, ``uuid``, ``os.urandom``)
DET003    iteration over an unordered ``set``/``frozenset``/``.keys()``
CHK001    checkpointed dataclass field missing from its schema
CHK002    store-persisted dataclass field missing from its JSONL codec
CHK003    column projection reads a field absent from the store codec
SUP001    malformed suppression comments (engine-level)
========  ==============================================================

Checkers are deliberately syntactic: they over-approximate, and the
``# repro: allow <CODE> <reason>`` annotation absorbs the sites a human
has judged safe.  The catalog order is the report order for same-line
findings.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.engine import Finding, ParsedModule

__all__ = [
    "CATALOG",
    "PROJECT_CATALOG",
    "Checker",
    "known_codes",
]


class Checker:
    """Base per-module checker."""

    code: str = ""
    name: str = ""
    rationale: str = ""
    hint: str = ""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        yield from self.visit(module)

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Import resolution shared by the call-site checkers.
# ----------------------------------------------------------------------


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, for every import in the module.

    ``import numpy as np``           maps ``np -> numpy``;
    ``from datetime import datetime`` maps ``datetime ->
    datetime.datetime``; the resolver below chains attribute accesses, so
    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue   # relative imports never hide stdlib randomness
            for alias in node.names:
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def _resolve(expr: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted origin of a Name/Attribute chain, or None."""
    if isinstance(expr, ast.Name):
        return imports.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, imports)
        if base is not None:
            return f"{base}.{expr.attr}"
    return None


# ----------------------------------------------------------------------
# DET001 — wall-clock access.
# ----------------------------------------------------------------------


class WallClockChecker(Checker):
    code = "DET001"
    name = "wall-clock access"
    rationale = (
        "every component paces itself on an injected Clock; reading the "
        "host's clock makes retry schedules, rate-limit windows and "
        "timestamps differ between runs"
    )
    hint = (
        "take a repro.net.clock.Clock parameter and call clock.now() / "
        "clock.sleep()"
    )
    _WALL = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.sleep", "time.localtime", "time.gmtime",
    })
    _ARGLESS_WALL = frozenset({
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(node.func, imports)
            if target is None:
                continue
            if target in self._WALL:
                yield module.finding(
                    self.code, node,
                    f"wall-clock call {target}()",
                    self.hint,
                )
            elif (
                target in self._ARGLESS_WALL
                and not node.args
                and not node.keywords
            ):
                yield module.finding(
                    self.code, node,
                    f"argless {target}() reads the wall clock",
                    self.hint,
                )


# ----------------------------------------------------------------------
# Entropy sources: DET002 flags the RNG calls, DET101 follows every value.
# ----------------------------------------------------------------------

KIND_RNG = "unseeded-rng"
KIND_PID = "process-id"

#: generator constructors that draw OS entropy only when given no seed
_SEEDABLE = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence",
})
#: calls that draw OS entropy whatever their arguments
_OS_ENTROPY_CALLS = frozenset({
    "random.SystemRandom", "uuid.uuid1", "uuid.uuid4", "os.urandom",
})
#: modules whose every function draws from a hidden RNG
_RNG_MODULES = {
    "random": "the process-global stdlib RNG",
    "secrets": "OS entropy",
}
#: numpy.random module-level calls that touch the hidden global state
_NUMPY_GLOBAL = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "bytes",
    "uniform", "normal", "standard_normal", "beta", "binomial",
    "poisson", "exponential", "gamma", "lognormal", "pareto", "zipf",
})
#: calls whose value identifies the running process
_PROCESS_ID_CALLS = frozenset({
    "os.getpid", "os.getppid", "multiprocessing.current_process",
})


def entropy_source(
    dotted: str, has_args: bool | None
) -> tuple[str, str] | None:
    """``(kind, reason)`` when a call to ``dotted`` differs on every run.

    ``kind`` is :data:`KIND_RNG` or :data:`KIND_PID`.  A seedable
    constructor is a source only when called without arguments, so a
    bare reference (``has_args`` None: the call's arguments are unknown)
    to one is not.
    """
    if dotted in _PROCESS_ID_CALLS:
        return KIND_PID, f"{dotted}() identifies the running process"
    if dotted in _SEEDABLE:
        if has_args is not False:
            return None
        return KIND_RNG, f"{dotted}() without a seed draws OS entropy"
    if dotted in _OS_ENTROPY_CALLS:
        return KIND_RNG, f"{dotted}() draws OS entropy"
    module, _, name = dotted.rpartition(".")
    if module in _RNG_MODULES:
        return KIND_RNG, f"{dotted}() draws {_RNG_MODULES[module]}"
    if module == "numpy.random" and name in _NUMPY_GLOBAL:
        return KIND_RNG, f"{dotted}() uses numpy's hidden global RNG state"
    return None


# ----------------------------------------------------------------------
# DET002 — unseeded randomness.
# ----------------------------------------------------------------------


class UnseededRandomChecker(Checker):
    code = "DET002"
    name = "unseeded randomness"
    rationale = (
        "all randomness must descend from the world seed "
        "(np.random.SeedSequence(config.seed) in platform/world.py); "
        "module-level RNG state and OS entropy (uuid4, os.urandom, "
        "secrets) break run-to-run bit-identity"
    )
    hint = (
        "thread an np.random.Generator parameter down from the world's "
        "seeded streams (see platform/latent.py), or pass an explicit seed"
    )

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(node.func, imports)
            if target is None:
                continue
            source = entropy_source(target, bool(node.args or node.keywords))
            # Process ids are reported where they escape (DET101).
            if source is not None and source[0] == KIND_RNG:
                yield module.finding(self.code, node, source[1], self.hint)


# ----------------------------------------------------------------------
# DET003 — unordered iteration.
# ----------------------------------------------------------------------

# Callables whose result does not depend on argument order.
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
    "bool", "dict",
})
# Callables that materialise their argument's order: a set flowing into
# one of these leaks hash order into downstream state.  A set passed to
# any *other* call is not flagged here — if the callee iterates it, the
# callee's own set-annotated parameter triggers the checker at the real
# iteration site.
_ORDER_SENSITIVE_CALLS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed", "deque", "zip",
})
_ORDER_SENSITIVE_METHODS = frozenset({
    "join", "extend", "extendleft", "add_nodes_from", "add_edges_from",
})
# Methods that are order-insensitive when a set is passed to them.
_ORDER_INSENSITIVE_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "issubset", "issuperset", "isdisjoint", "update",
    "intersection_update", "difference_update", "discard",
})
_SET_RETURNING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "AbstractSet",
                              "FrozenSet", "MutableSet"})


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("[", 1)[0].strip()
        return text.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    return False


class _SetScope:
    """Tracks which local names / self-attributes hold sets."""

    def __init__(self) -> None:
        self.names: dict[str, bool] = {}
        self.self_attrs: set[str] = set()

    def is_set(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return self.names.get(expr.id, False)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
        ):
            return expr.attr in self.self_attrs
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
                and self.is_set(func.value)
            ):
                return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(expr.left) or self.is_set(expr.right)
        return False


class UnorderedIterationChecker(Checker):
    code = "DET003"
    name = "unordered iteration"
    rationale = (
        "set iteration order depends on insertion history and (for str "
        "keys) PYTHONHASHSEED; any such order reaching corpus, checkpoint "
        "or report bytes silently breaks bit-identity across runs"
    )
    hint = (
        "wrap the iterable in sorted(...) where order can reach output, "
        "or annotate the line with '# repro: allow DET003 <reason>'"
    )

    def visit(self, module: ParsedModule) -> Iterator[Finding]:
        yield from self._scan_scope(
            module, module.tree.body, _SetScope(), class_attrs=set()
        )

    # -- scope plumbing -------------------------------------------------

    def _scan_scope(
        self,
        module: ParsedModule,
        body: Sequence[ast.stmt],
        scope: _SetScope,
        class_attrs: set[str],
    ) -> Iterator[Finding]:
        scope.self_attrs |= class_attrs
        for stmt in body:
            yield from self._scan_stmt(module, stmt, scope, class_attrs)

    def _scan_stmt(
        self,
        module: ParsedModule,
        stmt: ast.stmt,
        scope: _SetScope,
        class_attrs: set[str],
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.ClassDef):
            attrs = _collect_set_attributes(stmt)
            for inner in stmt.body:
                yield from self._scan_stmt(module, inner, _SetScope(), attrs)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner_scope = _SetScope()
            inner_scope.self_attrs |= class_attrs
            for arg in _all_args(stmt.args):
                if _annotation_is_set(arg.annotation):
                    inner_scope.names[arg.arg] = True
            yield from self._scan_scope(
                module, stmt.body, inner_scope, class_attrs
            )
            return
        # Track assignments, then flag iteration sites in this statement.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    scope.names[target.id] = scope.is_set(node.value)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                    and scope.is_set(node.value)
                ):
                    scope.self_attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _annotation_is_set(node.annotation):
                    scope.names[node.target.id] = True
        yield from self._scan_sites(module, stmt, scope)

    # -- iteration-site detection --------------------------------------

    def _scan_sites(
        self, module: ParsedModule, stmt: ast.stmt, scope: _SetScope
    ) -> Iterator[Finding]:
        skip: set[int] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in _ORDER_INSENSITIVE_CALLS or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_INSENSITIVE_METHODS
                ):
                    # The whole argument subtree is neutralised: hash
                    # order cannot escape an order-insensitive consumer.
                    for arg in node.args:
                        skip.update(id(sub) for sub in ast.walk(arg))
        for node in ast.walk(stmt):
            if isinstance(node, ast.For):
                yield from self._flag(module, node.iter, scope, skip, "for")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if id(node) in skip:
                    continue   # consumed by an order-insensitive call
                for gen in node.generators:
                    yield from self._flag(
                        module, gen.iter, scope, skip, "comprehension"
                    )
            elif isinstance(node, ast.DictComp):
                for gen in node.generators:
                    yield from self._flag(
                        module, gen.iter, scope, skip, "dict comprehension"
                    )
            elif isinstance(node, ast.Call):
                yield from self._flag_call(module, node, scope, skip)
            elif isinstance(node, ast.Starred):
                yield from self._flag(module, node.value, scope, skip, "unpack")

    def _flag_call(
        self,
        module: ParsedModule,
        node: ast.Call,
        scope: _SetScope,
        skip: set[int],
    ) -> Iterator[Finding]:
        name = _call_name(node.func)
        ordered = name in _ORDER_SENSITIVE_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ORDER_SENSITIVE_METHODS
        )
        if not ordered:
            return
        for arg in node.args:
            context = f"argument to {name}()"
            yield from self._flag(module, arg, scope, skip, context)

    def _flag(
        self,
        module: ParsedModule,
        expr: ast.expr,
        scope: _SetScope,
        skip: set[int],
        context: str,
    ) -> Iterator[Finding]:
        if id(expr) in skip:
            return
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
            and not expr.args
        ):
            yield module.finding(
                self.code, expr,
                f".keys() iterated in a {context} — iterate the dict "
                "itself (insertion order) or sorted(d) when order reaches "
                "output",
                self.hint,
            )
            return
        if scope.is_set(expr):
            yield module.finding(
                self.code, expr,
                f"unordered set iterated/consumed in a {context}",
                self.hint,
            )


def _all_args(args: ast.arguments) -> list[ast.arg]:
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _collect_set_attributes(cls: ast.ClassDef) -> set[str]:
    """Attributes of ``cls`` that are set-typed (annotation or ctor)."""
    attrs: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if _annotation_is_set(stmt.annotation):
                attrs.add(stmt.target.id)
            # dataclass field(default_factory=set)
            if isinstance(stmt.value, ast.Call):
                for kw in stmt.value.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in ("set", "frozenset")
                    ):
                        attrs.add(stmt.target.id)
    probe = _SetScope()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and probe.is_set(node.value)
            ):
                attrs.add(target.attr)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Attribute
        ):
            if (
                isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
                and _annotation_is_set(node.annotation)
            ):
                attrs.add(node.target.attr)
    return attrs


# ----------------------------------------------------------------------
# Serializer names (CHK001 regions, dataflow sinks).
# ----------------------------------------------------------------------

_SERIALIZER_NAMES = frozenset({
    "to_payload", "to_dict", "to_state", "to_json",
    "result_to_payload", "dumps_result", "snapshot",
})


# ----------------------------------------------------------------------
# CHK001 — checkpoint schema drift (project-level).
# ----------------------------------------------------------------------


class ProjectChecker:
    """Base checker that needs the whole parsed tree at once."""

    code: str = ""
    name: str = ""
    rationale: str = ""
    hint: str = ""

    def check_project(
        self, modules: Sequence[ParsedModule]
    ) -> Iterator[Finding]:
        raise NotImplementedError


#: dataclasses serialised by the module-level result payload functions.
_RECORD_CLASSES = frozenset({"CrawledUser", "CrawledUrl", "CrawledComment"})
_RECORD_SERIALIZERS = ("result_to_payload", "result_from_payload")


class CheckpointSchemaChecker(ProjectChecker):
    code = "CHK001"
    name = "checkpoint schema drift"
    rationale = (
        "a field added to a checkpointed dataclass but not to its "
        "serializer round-trips as its default after resume — the crawl "
        "silently diverges from an uninterrupted run"
    )
    hint = (
        "register the field in the matching to_*/from_* serializer "
        "(checkpoint format v2, DESIGN.md §7)"
    )

    def check_project(
        self, modules: Sequence[ParsedModule]
    ) -> Iterator[Finding]:
        record_strings: set[str] = set()
        serializers_found = 0
        for module in modules:
            for node in module.tree.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name in _RECORD_SERIALIZERS
                ):
                    serializers_found += 1
                    record_strings |= _string_constants(node)
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if not _is_dataclass(node):
                    continue
                yield from self._check_inline(module, node)
                if node.name in _RECORD_CLASSES and serializers_found:
                    yield from self._check_against(
                        module, node, record_strings,
                        "result_to_payload/result_from_payload",
                    )

    def _check_inline(
        self, module: ParsedModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        serializer_strings: set[str] = set()
        has_serializer = False
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name in _SERIALIZER_NAMES
            ):
                has_serializer = True
                serializer_strings |= _string_constants(stmt)
        if not has_serializer:
            return
        yield from self._check_against(
            module, cls, serializer_strings, f"{cls.name}'s serializer"
        )

    def _check_against(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        strings: set[str],
        where: str,
    ) -> Iterator[Finding]:
        for name, node in _dataclass_fields(cls):
            if name not in strings:
                yield module.finding(
                    self.code, node,
                    f"field {cls.name}.{name} is not registered in {where}",
                    self.hint,
                )


# ----------------------------------------------------------------------
# CHK002 — store codec drift (project-level).
# ----------------------------------------------------------------------

#: store-persisted dataclass -> its encode/decode codec pair in
#: :mod:`repro.store.codecs`.
_CODEC_FUNCTIONS: dict[str, tuple[str, str]] = {
    "CrawledUser": ("encode_user", "decode_user"),
    "CrawledUrl": ("encode_url", "decode_url"),
    "CrawledComment": ("encode_comment", "decode_comment"),
}


class StoreCodecChecker(ProjectChecker):
    code = "CHK002"
    name = "store codec drift"
    rationale = (
        "a field added to a store-persisted dataclass but not to its "
        "JSONL codec is dropped from every sealed segment — the corpus "
        "silently loses it across a checkpoint-v3 resume while an "
        "uninterrupted run keeps it"
    )
    hint = (
        "register the field in the matching encode_*/decode_* codec "
        "(repro.store.codecs, DESIGN.md §10)"
    )

    def check_project(
        self, modules: Sequence[ParsedModule]
    ) -> Iterator[Finding]:
        # Field names appear as string constants inside the codec
        # functions; collect them per record class, mirroring CHK001.
        codec_strings: dict[str, set[str]] = {}
        for module in modules:
            for node in module.tree.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                for cls_name, functions in _CODEC_FUNCTIONS.items():
                    if node.name in functions:
                        codec_strings.setdefault(cls_name, set()).update(
                            _string_constants(node)
                        )
        if not codec_strings:
            return
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                strings = codec_strings.get(node.name)
                if strings is None or not _is_dataclass(node):
                    continue
                where = "/".join(_CODEC_FUNCTIONS[node.name])
                for name, field_node in _dataclass_fields(node):
                    if name not in strings:
                        yield module.finding(
                            self.code, field_node,
                            f"field {node.name}.{name} is not encoded by "
                            f"its store codec ({where})",
                            self.hint,
                        )


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(node, ast.Name) and node.id == "dataclass":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "dataclass":
            return True
    return False


def _dataclass_fields(cls: ast.ClassDef) -> Iterator[tuple[str, ast.AST]]:
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = stmt.annotation
        base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        if isinstance(base, ast.Name) and base.id == "ClassVar":
            continue
        if isinstance(base, ast.Attribute) and base.attr == "ClassVar":
            continue
        yield name, stmt


def _string_constants(node: ast.AST) -> set[str]:
    return {
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }


# ----------------------------------------------------------------------
# CHK003 — column projection schema drift (project-level).
# ----------------------------------------------------------------------

#: module-level dict literal mapping record class -> projected fields.
_PROJECTION_SPEC_NAME = "PROJECTION_SPEC"


class ColumnSchemaChecker(ProjectChecker):
    code = "CHK003"
    name = "column schema drift"
    rationale = (
        "a field the column projector reads but the JSONL codec does not "
        "persist would project correctly during the crawl yet re-project "
        "differently (or crash) from the sealed segment log — the "
        "columnar fallback path would silently diverge from the freshly "
        "projected arrays"
    )
    hint = (
        "project only fields the store codec round-trips "
        "(repro.store.codecs; PROJECTION_SPEC in repro.store.columns, "
        "DESIGN.md §11)"
    )

    def check_project(
        self, modules: Sequence[ParsedModule]
    ) -> Iterator[Finding]:
        # Same collection as CHK002: field names appear as string
        # constants inside each record class's codec pair.
        codec_strings: dict[str, set[str]] = {}
        for module in modules:
            for node in module.tree.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                for cls_name, functions in _CODEC_FUNCTIONS.items():
                    if node.name in functions:
                        codec_strings.setdefault(cls_name, set()).update(
                            _string_constants(node)
                        )
        if not codec_strings:
            return
        for module in modules:
            for spec in _projection_specs(module.tree):
                for cls_name, fields in _projection_entries(spec):
                    strings = codec_strings.get(cls_name)
                    if strings is None:
                        continue
                    for field_name, node in fields:
                        if field_name not in strings:
                            where = "/".join(_CODEC_FUNCTIONS[cls_name])
                            yield module.finding(
                                self.code, node,
                                f"projected field {cls_name}.{field_name} "
                                f"is not persisted by its store codec "
                                f"({where})",
                                self.hint,
                            )


def _projection_specs(tree: ast.Module) -> Iterator[ast.Dict]:
    """Module-level ``PROJECTION_SPEC = {...}`` dict literals."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if not isinstance(value, ast.Dict):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == _PROJECTION_SPEC_NAME
            ):
                yield value
                break


def _projection_entries(
    spec: ast.Dict,
) -> Iterator[tuple[str, list[tuple[str, ast.AST]]]]:
    """(class name, [(field name, node), ...]) pairs of a spec literal."""
    for key, value in zip(spec.keys, spec.values):
        if not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
        ):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        fields = [
            (element.value, element)
            for element in value.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
        yield key.value, fields


# ----------------------------------------------------------------------
# The catalog.
# ----------------------------------------------------------------------

CATALOG: tuple[Checker, ...] = (
    WallClockChecker(),
    UnseededRandomChecker(),
    UnorderedIterationChecker(),
)

PROJECT_CATALOG: tuple[ProjectChecker, ...] = (
    CheckpointSchemaChecker(),
    StoreCodecChecker(),
    ColumnSchemaChecker(),
)


def known_codes() -> set[str]:
    """Every valid checker code (for suppression validation)."""
    # Imported lazily: dataflow imports this module's source tables.
    from repro.analysis.dataflow import FLOW_CATALOG

    codes = {checker.code for checker in CATALOG}
    codes |= {checker.code for checker in PROJECT_CATALOG}
    codes |= {info.code for info in FLOW_CATALOG}
    codes |= {"SUP001", "SUP002"}
    return codes
