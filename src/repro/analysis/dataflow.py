"""Interprocedural taint dataflow and the seal state machine.

The per-file checkers flag nondeterminism *at its source site*; this
pass flags it *where it escapes*: a value derived from the wall clock,
an unseeded RNG, set iteration order, or a process id that flows —
through calls, returns, assignments, attribute/container writes — into
a serialization sink (checkpoint/codec/``to_*`` serializers and
``json.dump(s)`` payloads, which is where corpus log lines, checkpoint
bytes and report bytes are born).

Taint kinds map onto the flow-aware finding codes:

========  ==============================================================
DET101    wall-clock, unseeded-RNG/OS-entropy or process-id value
          reaches serialized bytes (sources: DET001's tables and
          ``checkers.entropy_source``)
DET103    set-iteration order reaches serialized bytes
SEAL001   a store-mutating method reachable from a post-``seal()``
          context without a ``SealedCorpusError`` guard
========  ==============================================================

The analysis is deliberately an over- *and* under-approximation (see
DESIGN.md §14): flow-insensitive within a function except for
statement order in the seal checker, context-insensitive summaries
(one per function: return taints, param→return flows, param→sink
chains), no control-dependence tracking, and chains capped at
:data:`_MAX_CHAIN` hops.  Every finding renders its full source→sink
call chain so a reviewer can replay the flow by hand.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.callgraph import CallGraph, CallResolver, build_callgraph
from repro.analysis.checkers import (
    _ORDER_INSENSITIVE_CALLS,
    _ORDER_SENSITIVE_CALLS,
    _ORDER_SENSITIVE_METHODS,
    _SERIALIZER_NAMES,
    KIND_PID,
    KIND_RNG,
    WallClockChecker,
    entropy_source,
)
from repro.analysis.engine import Finding, ParsedModule
from repro.analysis.symbols import FunctionInfo, SymbolTable

__all__ = [
    "FLOW_CATALOG",
    "FlowCheckerInfo",
    "analyze_project",
    "project_callgraph",
]

# ----------------------------------------------------------------------
# Taint model.
# ----------------------------------------------------------------------

KIND_WALL = "wall-clock"
KIND_SET = "set-order"

#: a *callable* value that would produce the kind when called
_FN = "fn:"
#: symbolic taint standing for "whatever the caller passes as <param>"
_PARAM = "param:"

_KIND_CODE = {
    KIND_WALL: "DET101",
    KIND_RNG: "DET101",
    KIND_SET: "DET103",
    KIND_PID: "DET101",
}

_KIND_NOUN = {
    KIND_WALL: "wall-clock value",
    KIND_RNG: "unseeded-RNG value",
    KIND_SET: "set-iteration order",
    KIND_PID: "process id",
}

_MAX_CHAIN = 8

#: builtin calls that destroy value taint (nothing of the input's
#: nondeterminism survives them)
_NEUTRAL_CALLS = frozenset({"len", "bool", "isinstance", "type", "id"})

#: receiver methods that fold argument taint into the receiver object
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "extendleft", "insert",
    "update", "setdefault", "push", "put",
})

#: functions whose return value (or json payload argument) is the
#: serialized-bytes boundary
_SINK_FUNCTIONS = frozenset(_SERIALIZER_NAMES) | frozenset({
    "encode_user", "encode_url", "encode_comment", "encode_record",
})

_JSON_DUMPERS = frozenset({"json.dump", "json.dumps"})

_WALL_CALLS = WallClockChecker._WALL
_ARGLESS_WALL_CALLS = WallClockChecker._ARGLESS_WALL


@dataclass(frozen=True, order=True)
class ChainStep:
    """One hop of a source→sink chain; ordered so chain comparisons
    (minimal-chain joins, deterministic tie-breaks) are total."""

    label: str
    path: str
    line: int

    def render(self) -> str:
        return f"{self.label} ({self.path}:{self.line})"


@dataclass(frozen=True)
class Taint:
    """One taint fact: a kind plus the chain that produced it."""

    kind: str
    chain: tuple[ChainStep, ...]

    def sort_key(self) -> tuple:
        return (self.kind, len(self.chain), self.chain)

    def hop(self, step: ChainStep) -> "Taint":
        if len(self.chain) >= _MAX_CHAIN:
            return self
        return Taint(self.kind, (*self.chain, step))


#: taints are carried as sorted, per-kind-deduplicated tuples so every
#: downstream iteration is deterministic (and the lint suite's own
#: DET003 never fires on this module)
TaintSet = tuple[Taint, ...]

_EMPTY: TaintSet = ()


def _join(*sets: Sequence[Taint]) -> TaintSet:
    """Union keeping one (minimal-chain) taint per kind."""
    best: dict[str, Taint] = {}
    for taints in sets:
        for taint in taints:
            current = best.get(taint.kind)
            if current is None or taint.sort_key() < current.sort_key():
                best[taint.kind] = taint
    return tuple(best[kind] for kind in sorted(best))


def _drop(taints: Sequence[Taint], kind: str) -> TaintSet:
    return tuple(t for t in taints if t.kind != kind)


def _real(taints: Sequence[Taint]) -> TaintSet:
    return tuple(
        t for t in taints
        if not t.kind.startswith(_FN) and not t.kind.startswith(_PARAM)
    )


def _symbolic(taints: Sequence[Taint]) -> TaintSet:
    return tuple(t for t in taints if t.kind.startswith(_PARAM))


# ----------------------------------------------------------------------
# Source classification.
# ----------------------------------------------------------------------


def _classify_call(
    dotted: str, has_args: bool | None
) -> tuple[str, str] | None:
    """(kind, label) when a resolved call is a nondeterminism source
    (``has_args`` None: a bare reference, see :func:`entropy_source`)."""
    if dotted in _WALL_CALLS or (
        dotted in _ARGLESS_WALL_CALLS and not has_args
    ):
        return KIND_WALL, f"{dotted}()"
    source = entropy_source(dotted, has_args)
    if source is not None:
        return source[0], f"{dotted}()"
    return None


def _classify_reference(dotted: str) -> tuple[str, str] | None:
    """(fn-kind, label) when a *bare reference* names a nondet callable.

    ``_now = time.time`` launders the call out of DET001's sight; the
    taint pass marks the alias as a wall-clock *function value* and
    converts it to a wall-clock *value* wherever it is finally called.
    """
    classified = _classify_call(dotted, has_args=None)
    if classified is None:
        return None
    return _FN + classified[0], dotted


# ----------------------------------------------------------------------
# Function summaries.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    """Context-insensitive facts about one function."""

    #: taints of the return value (chains end at this function's return)
    returns: TaintSet = _EMPTY
    #: parameter names whose taint flows into the return value
    param_to_return: tuple[str, ...] = ()
    #: parameter name -> chain suffix from entry to a sink inside
    param_sinks: tuple[tuple[str, tuple[ChainStep, ...]], ...] = ()

    def sink_chain(self, param: str) -> tuple[ChainStep, ...] | None:
        for name, chain in self.param_sinks:
            if name == param:
                return chain
        return None


def _map_args(
    call: ast.Call,
    callee: FunctionInfo,
    bound_receiver: ast.expr | None,
) -> Iterator[tuple[str, ast.expr]]:
    """(param name, argument expression) pairs for one call site."""
    args = callee.node.args
    params = [a.arg for a in [*args.posonlyargs, *args.args]]
    offset = 0
    if callee.class_name is not None and bound_receiver is not None:
        if params:
            yield params[0], bound_receiver
        offset = 1
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        slot = index + offset
        if slot < len(params):
            yield params[slot], arg
    kw_names = {a.arg for a in args.kwonlyargs} | set(params)
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in kw_names:
            yield keyword.arg, keyword.value


def _guarded_node_ids(node: ast.AST) -> set[int]:
    """ids of nodes protected by a SealedCorpusError try/except or
    ``contextlib.suppress(SealedCorpusError)``."""

    def names_sealed_error(expr: ast.expr | None) -> bool:
        if expr is None:
            return False
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id == "SealedCorpusError":
                return True
            if isinstance(sub, ast.Attribute) and (
                sub.attr == "SealedCorpusError"
            ):
                return True
        return False

    guarded: set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Try):
            if any(names_sealed_error(h.type) for h in sub.handlers):
                for stmt in sub.body:
                    for inner in ast.walk(stmt):
                        guarded.add(id(inner))
        elif isinstance(sub, ast.With):
            for item in sub.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Call)
                    and names_sealed_error(expr)
                ):
                    for stmt in sub.body:
                        for inner in ast.walk(stmt):
                            guarded.add(id(inner))
    return guarded


# ----------------------------------------------------------------------
# The taint engine.
# ----------------------------------------------------------------------


class TaintEngine:
    """Fixpoint of function summaries, then one finding-emission pass."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.summaries: dict[str, Summary] = {}
        #: (class name, attr) -> accumulated taints (flow-insensitive)
        self.field_taints: dict[tuple[str, str], TaintSet] = {}
        self._resolvers: dict[str, CallResolver] = {}
        self.findings: list[tuple[str, str, int, str]] = []
        #: module name -> {global alias -> fn-taints}; catches the
        #: module-level laundering idiom ``_now = time.time``
        self.module_globals: dict[str, dict[str, TaintSet]] = {}
        for module_name in sorted(table.modules):
            info = table.modules[module_name]
            env: dict[str, TaintSet] = {}
            for stmt in info.tree.body:
                if not (
                    isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                ):
                    continue
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                dotted = table.resolve_dotted(stmt.value, info.imports)
                if dotted is None:
                    continue
                classified = _classify_reference(dotted)
                if classified is None:
                    continue
                kind, label = classified
                env[target.id] = (
                    Taint(kind, (ChainStep(
                        f"{label} aliased as {target.id}",
                        info.path,
                        stmt.lineno,
                    ),)),
                )
            if env:
                self.module_globals[module_name] = env

    def resolver_for(self, function: FunctionInfo) -> CallResolver:
        resolver = self._resolvers.get(function.qname)
        if resolver is None:
            resolver = CallResolver(self.table, function)
            self._resolvers[function.qname] = resolver
        return resolver

    def run(self) -> None:
        functions = list(self.table.iter_functions())
        for function in functions:
            self.summaries[function.qname] = Summary()
        for _round in range(12):
            changed = False
            for function in functions:
                analysis = _FunctionTaint(self, function, emit=False)
                summary = analysis.run()
                if summary != self.summaries[function.qname]:
                    self.summaries[function.qname] = summary
                    changed = True
            if not changed:
                break
        for function in functions:
            _FunctionTaint(self, function, emit=True).run()

    def emit(
        self, kind: str, chain: tuple[ChainStep, ...], path: str, line: int
    ) -> None:
        code = _KIND_CODE[kind]
        rendered = " -> ".join(step.render() for step in chain)
        message = (
            f"{_KIND_NOUN[kind]} reaches serialized bytes: {rendered}"
        )
        self.findings.append((code, path, line, message))


class _FunctionTaint:
    """One intraprocedural pass under the current summaries."""

    def __init__(
        self, engine: TaintEngine, function: FunctionInfo, emit: bool
    ) -> None:
        self.engine = engine
        self.function = function
        self.resolver = engine.resolver_for(function)
        self.emitting = emit
        self.env: dict[str, TaintSet] = {}
        self.returns: TaintSet = _EMPTY
        self.param_to_return: set[str] = set()
        self.param_sinks: dict[str, tuple[ChainStep, ...]] = {}
        self.is_sink = function.name in _SINK_FUNCTIONS

    # -- plumbing -------------------------------------------------------

    def run(self) -> Summary:
        node = self.function.node
        params = [
            a.arg
            for a in [
                *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
            ]
        ]
        for param in params:
            self.env[param] = (Taint(_PARAM + param, ()),)
        passes = 2 if any(
            isinstance(sub, (ast.For, ast.While)) for sub in ast.walk(node)
        ) else 1
        for _ in range(passes):
            self._exec_block(node.body)
        return Summary(
            returns=self.returns,
            param_to_return=tuple(sorted(self.param_to_return)),
            param_sinks=tuple(sorted(self.param_sinks.items())),
        )

    def _bind(self, name: str, taints: TaintSet) -> None:
        if taints:
            self.env[name] = _join(self.env.get(name, _EMPTY), taints)

    def _bind_field(self, class_name: str, attr: str, taints: TaintSet) -> None:
        if not taints:
            return
        key = (class_name, attr)
        merged = _join(self.engine.field_taints.get(key, _EMPTY), taints)
        self.engine.field_taints[key] = merged

    def _step(self, label: str, node: ast.AST) -> ChainStep:
        return ChainStep(
            label=label,
            path=self.function.path,
            line=getattr(node, "lineno", self.function.line),
        )

    # -- statements -----------------------------------------------------

    def _exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return   # nested defs are analyzed as their own functions
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, taints)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, self._eval(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value)
            self._assign_target(stmt.target, taints)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._note_return(self._eval(stmt.value), stmt)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        if isinstance(stmt, ast.For):
            iter_taints = self._eval(stmt.iter)
            if self.resolver.expr_is_set(stmt.iter):
                iter_taints = _join(
                    iter_taints,
                    (Taint(KIND_SET, (
                        self._step("set iterated", stmt.iter),
                    )),),
                )
            self._assign_target(stmt.target, iter_taints)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
            return
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, taints)
            self._exec_block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self._eval(sub)
            return
        # Remaining statements (pass/break/continue/global/...) carry no
        # dataflow.

    def _assign_target(self, target: ast.expr, taints: TaintSet) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, taints)
        elif isinstance(target, ast.Attribute):
            owner_type = self.resolver.infer_type(target.value)
            if owner_type is not None:
                self._bind_field(owner_type, target.attr, _real(taints))
        elif isinstance(target, ast.Subscript):
            # Container write: the container inherits the value's taint.
            self._assign_target(target.value, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, taints)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, taints)

    def _note_return(self, taints: TaintSet, node: ast.AST) -> None:
        real = _real(taints)
        symbolic = _symbolic(taints)
        if self.is_sink:
            sink_step = self._step(
                f"serialized by {self.function.name}()", node
            )
            if self.emitting:
                for taint in real:
                    self.engine.emit(
                        taint.kind,
                        (*taint.chain, sink_step),
                        self.function.path,
                        sink_step.line,
                    )
            for taint in symbolic:
                param = taint.kind[len(_PARAM):]
                self._note_param_sink(param, (*taint.chain, sink_step))
            return
        fn_taints = tuple(t for t in taints if t.kind.startswith(_FN))
        self.returns = _join(self.returns, real, fn_taints)
        for taint in symbolic:
            self.param_to_return.add(taint.kind[len(_PARAM):])

    def _note_param_sink(
        self, param: str, chain: tuple[ChainStep, ...]
    ) -> None:
        current = self.param_sinks.get(param)
        if current is None or (len(chain), chain) < (len(current), current):
            self.param_sinks[param] = chain

    # -- expressions ----------------------------------------------------

    def _name_taints(self, name: str) -> TaintSet:
        taints = self.env.get(name, _EMPTY)
        if taints:
            return taints
        module_env = self.engine.module_globals.get(self.function.module)
        if module_env is not None:
            return module_env.get(name, _EMPTY)
        return _EMPTY

    def _eval(self, expr: ast.expr) -> TaintSet:
        if isinstance(expr, ast.Name):
            taints = self._name_taints(expr.id)
            reference = self._reference_taint(expr)
            return _join(taints, reference)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            return _join(self._eval(expr.left), self._eval(expr.right))
        if isinstance(expr, ast.BoolOp):
            return _join(*[self._eval(value) for value in expr.values])
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            return _join(self._eval(expr.body), self._eval(expr.orelse))
        if isinstance(expr, ast.Compare):
            # Comparisons collapse to a bool; control-dependence is a
            # documented under-approximation (DESIGN.md §14).
            self._eval(expr.left)
            for comparator in expr.comparators:
                self._eval(comparator)
            return _EMPTY
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            return _join(*[self._eval(element) for element in expr.elts])
        if isinstance(expr, ast.Dict):
            parts = [self._eval(v) for v in expr.values]
            parts.extend(self._eval(k) for k in expr.keys if k is not None)
            return _join(*parts)
        if isinstance(expr, ast.JoinedStr):
            return _join(*[self._eval(value) for value in expr.values])
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value)
        if isinstance(expr, ast.Subscript):
            self._eval(expr.slice)
            return self._eval(expr.value)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            taints = self._eval(expr.value)
            self._assign_target(expr.target, taints)
            return taints
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(expr)
        if isinstance(expr, ast.Lambda):
            return _EMPTY
        return _EMPTY

    def _reference_taint(self, expr: ast.expr) -> TaintSet:
        """fn-taint for a bare reference to a nondeterministic callable."""
        dotted = self.engine.table.resolve_dotted(expr, self.resolver.imports)
        if dotted is None:
            return _EMPTY
        classified = _classify_reference(dotted)
        if classified is None:
            return _EMPTY
        kind, label = classified
        return (Taint(kind, (self._step(f"{label} referenced", expr),)),)

    def _eval_attribute(self, expr: ast.Attribute) -> TaintSet:
        reference = self._reference_taint(expr)
        base_taints = self._eval(expr.value)
        owner_type = self.resolver.infer_type(expr.value)
        field = _EMPTY
        if owner_type is not None:
            field = self.engine.field_taints.get(
                (owner_type, expr.attr), _EMPTY
            )
        return _join(reference, _real(base_taints), _symbolic(base_taints),
                     tuple(t for t in base_taints if t.kind.startswith(_FN)),
                     field)

    def _eval_comprehension(self, expr: ast.expr) -> TaintSet:
        assert isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        )
        order_taint: TaintSet = _EMPTY
        for generator in expr.generators:
            iter_taints = self._eval(generator.iter)
            if self.resolver.expr_is_set(generator.iter) and not isinstance(
                expr, ast.SetComp
            ):
                order_taint = _join(order_taint, (
                    Taint(KIND_SET, (
                        self._step("set iterated", generator.iter),
                    )),
                ))
            self._assign_target(generator.target, iter_taints)
            for condition in generator.ifs:
                self._eval(condition)
        if isinstance(expr, ast.DictComp):
            element = _join(self._eval(expr.key), self._eval(expr.value))
        else:
            element = self._eval(expr.elt)
        if isinstance(expr, ast.SetComp):
            element = _drop(element, KIND_SET)
        return _join(element, order_taint)

    # -- calls ----------------------------------------------------------

    def _eval_call(self, call: ast.Call) -> TaintSet:
        resolver = self.resolver
        arg_exprs = [
            a.value if isinstance(a, ast.Starred) else a for a in call.args
        ] + [kw.value for kw in call.keywords]
        arg_taints = [self._eval(arg) for arg in arg_exprs]

        dotted = self.engine.table.resolve_dotted(call.func, resolver.imports)
        has_args = bool(call.args or call.keywords)

        # json.dump(s): a sink wherever it appears.
        if dotted in _JSON_DUMPERS:
            sink_step = self._step(f"passed to {dotted}()", call)
            for taints in arg_taints:
                if self.emitting:
                    for taint in _real(taints):
                        self.engine.emit(
                            taint.kind,
                            (*taint.chain, sink_step),
                            self.function.path,
                            sink_step.line,
                        )
                for taint in _symbolic(taints):
                    param = taint.kind[len(_PARAM):]
                    self._note_param_sink(
                        param, (*taint.chain, sink_step)
                    )
            return _EMPTY

        # Direct nondeterminism source.
        if dotted is not None:
            classified = _classify_call(dotted, has_args)
            if classified is not None:
                kind, label = classified
                return (Taint(kind, (self._step(label, call),)),)

        # Calling a tainted callable value (the laundering case).
        func_taints = self._eval(call.func) if not isinstance(
            call.func, ast.Name
        ) else self._name_taints(call.func.id)
        converted: list[Taint] = []
        for taint in func_taints:
            if taint.kind.startswith(_FN):
                converted.append(
                    Taint(
                        taint.kind[len(_FN):],
                        taint.chain,
                    ).hop(self._step("called through alias", call))
                )

        callee = resolver.resolved_function(call)
        name = call.func.attr if isinstance(call.func, ast.Attribute) else (
            call.func.id if isinstance(call.func, ast.Name) else None
        )

        # Order-insensitive builtins neutralize set-order taint; a few
        # neutralize everything.
        if callee is None and name in _NEUTRAL_CALLS:
            return _join(*converted) if converted else _EMPTY

        result: list[Sequence[Taint]] = [converted]

        # Materializing a set: the canonical DET103 source.
        if callee is None and name is not None:
            order_sensitive = name in _ORDER_SENSITIVE_CALLS or (
                isinstance(call.func, ast.Attribute)
                and name in _ORDER_SENSITIVE_METHODS
            )
            if order_sensitive:
                for arg in call.args:
                    if resolver.expr_is_set(arg):
                        result.append((
                            Taint(KIND_SET, (
                                self._step(
                                    f"set materialized by {name}()", call
                                ),
                            )),
                        ))
            if name == "pop" and isinstance(call.func, ast.Attribute):
                if resolver.expr_is_set(call.func.value) and not call.args:
                    result.append((
                        Taint(KIND_SET, (
                            self._step("set.pop()", call),
                        )),
                    ))

        receiver: ast.expr | None = None
        if isinstance(call.func, ast.Attribute):
            receiver = call.func.value

        if callee is not None:
            summary = self.engine.summaries.get(callee.qname, Summary())
            short = callee.name
            hop = self._step(f"via {short}()", call)
            for taint in summary.returns:
                result.append((taint.hop(hop),))
            mapped = list(_map_args(call, callee, receiver))
            for param, arg in mapped:
                taints = self._eval(arg)
                if param in summary.param_to_return:
                    through = self._step(f"through {short}({param})", call)
                    result.append(
                        tuple(t.hop(through) for t in _real(taints))
                    )
                    result.append(
                        tuple(t.hop(through) for t in _symbolic(taints))
                    )
                suffix = summary.sink_chain(param)
                if suffix is not None:
                    entry = self._step(f"passed to {short}()", call)
                    if self.emitting:
                        for taint in _real(taints):
                            chain = (*taint.chain, entry, *suffix)
                            sink = chain[-1]
                            self.engine.emit(
                                taint.kind, chain, sink.path, sink.line
                            )
                    for taint in _symbolic(taints):
                        caller_param = taint.kind[len(_PARAM):]
                        self._note_param_sink(
                            caller_param, (*taint.chain, entry, *suffix)
                        )
        else:
            # External callee: taint flows through conservatively, with
            # set-order dropped by the known order-insensitive consumers.
            for taints in arg_taints:
                real = _real(taints)
                if name in _ORDER_INSENSITIVE_CALLS:
                    real = _drop(real, KIND_SET)
                result.append(real)
            if receiver is not None:
                receiver_taints = self._eval(receiver)
                result.append(_real(receiver_taints))
                # Mutator methods fold argument taint into the receiver.
                if name in _MUTATOR_METHODS and isinstance(
                    receiver, ast.Name
                ):
                    incoming = _join(*arg_taints) if arg_taints else _EMPTY
                    self._bind(receiver.id, _real(incoming))
                    self._bind(receiver.id, _symbolic(incoming))
                elif name in _MUTATOR_METHODS and isinstance(
                    receiver, ast.Attribute
                ):
                    owner_type = resolver.infer_type(receiver.value)
                    if owner_type is not None:
                        incoming = _join(*arg_taints) if arg_taints else _EMPTY
                        self._bind_field(
                            owner_type, receiver.attr, _real(incoming)
                        )

        return _join(*result) if result else _EMPTY


# ----------------------------------------------------------------------
# SEAL001 — mutation reachable from a post-seal context.
# ----------------------------------------------------------------------


def _seal_classes(table: SymbolTable) -> dict[str, set[str]]:
    """class name -> its store-mutating method names.

    A "seal class" defines ``seal()`` and guards its mutators with
    ``self._guard()`` (the `CorpusStore` idiom); the mutating set is
    exactly the methods that call the guard.
    """
    classes: dict[str, set[str]] = {}
    for module_name in sorted(table.modules):
        module = table.modules[module_name]
        for class_name in sorted(module.classes):
            info = module.classes[class_name]
            if "seal" not in info.methods:
                continue
            mutators: set[str] = set()
            for method_name in sorted(info.methods):
                method = info.methods[method_name]
                for sub in ast.walk(method.node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "_guard"
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "self"
                    ):
                        mutators.add(method_name)
                        break
            if mutators:
                classes[info.name] = mutators
    return classes


def _seal_findings(
    table: SymbolTable, engine: TaintEngine
) -> Iterator[tuple[str, str, int, str]]:
    seal_classes = _seal_classes(table)
    if not seal_classes:
        return

    # Fixpoint: param name -> chain of steps ending at an unguarded
    # mutating call, per function.
    mutates: dict[str, dict[str, tuple[ChainStep, ...]]] = {
        f.qname: {} for f in table.iter_functions()
    }
    functions = list(table.iter_functions())

    def analyze(function: FunctionInfo) -> dict[str, tuple[ChainStep, ...]]:
        resolver = engine.resolver_for(function)
        guarded = _guarded_node_ids(function.node)
        node_args = function.node.args
        params = {
            a.arg
            for a in [
                *node_args.posonlyargs, *node_args.args, *node_args.kwonlyargs
            ]
        }
        found: dict[str, tuple[ChainStep, ...]] = {}

        def note(param: str, chain: tuple[ChainStep, ...]) -> None:
            current = found.get(param)
            if current is None or (len(chain), chain) < (
                len(current), current
            ):
                found[param] = chain

        for sub in ast.walk(function.node):
            if not isinstance(sub, ast.Call) or id(sub) in guarded:
                continue
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in params
            ):
                receiver_type = resolver.infer_type(func.value)
                if (
                    receiver_type in seal_classes
                    and func.attr in seal_classes[receiver_type]
                ):
                    note(func.value.id, (
                        ChainStep(
                            f"{receiver_type}.{func.attr}() mutates the "
                            "store",
                            function.path,
                            sub.lineno,
                        ),
                    ))
            callee = resolver.resolved_function(sub)
            if callee is None:
                continue
            receiver = func.value if isinstance(func, ast.Attribute) else None
            for param, arg in _map_args(sub, callee, receiver):
                if not (isinstance(arg, ast.Name) and arg.id in params):
                    continue
                deeper = mutates[callee.qname].get(param)
                if deeper is None:
                    continue
                note(arg.id, (
                    ChainStep(
                        f"via {callee.name}()",
                        function.path,
                        sub.lineno,
                    ),
                    *deeper,
                ))
        return found

    for _round in range(8):
        changed = False
        for function in functions:
            result = analyze(function)
            if result != mutates[function.qname]:
                mutates[function.qname] = result
                changed = True
        if not changed:
            break

    # Sealed-variable pass: statement order matters here.
    for function in functions:
        resolver = engine.resolver_for(function)
        guarded = _guarded_node_ids(function.node)
        sealed: dict[str, int] = {}
        for sub in ast.walk(function.node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "seal"
                and isinstance(func.value, ast.Name)
            ):
                receiver_type = resolver.infer_type(func.value)
                if receiver_type in seal_classes:
                    line = sub.lineno
                    name = func.value.id
                    if name not in sealed or line < sealed[name]:
                        sealed[name] = line
        if not sealed:
            continue
        for sub in ast.walk(function.node):
            if not isinstance(sub, ast.Call) or id(sub) in guarded:
                continue
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in sealed
                and sub.lineno > sealed[func.value.id]
            ):
                receiver_type = resolver.infer_type(func.value)
                if (
                    receiver_type in seal_classes
                    and func.attr in seal_classes[receiver_type]
                ):
                    name = func.value.id
                    yield (
                        "SEAL001",
                        function.path,
                        sub.lineno,
                        f"{receiver_type}.{func.attr}() called on "
                        f"'{name}' after {name}.seal() "
                        f"({function.path}:{sealed[name]}) without a "
                        "SealedCorpusError guard",
                    )
            callee = resolver.resolved_function(sub)
            if callee is None:
                continue
            receiver = func.value if isinstance(func, ast.Attribute) else None
            for param, arg in _map_args(sub, callee, receiver):
                if not isinstance(arg, ast.Name):
                    continue
                name = arg.id
                if name not in sealed or sub.lineno <= sealed[name]:
                    continue
                deeper = mutates[callee.qname].get(param)
                if deeper is None:
                    continue
                rendered = " -> ".join(step.render() for step in deeper)
                yield (
                    "SEAL001",
                    function.path,
                    sub.lineno,
                    f"'{name}' is sealed at {function.path}:"
                    f"{sealed[name]} but reaches a store mutation "
                    f"through {callee.name}(): {rendered}",
                )


# ----------------------------------------------------------------------
# Catalog descriptors + entry point.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlowCheckerInfo:
    """Catalog metadata for one interprocedural checker."""

    code: str
    name: str
    rationale: str
    hint: str


FLOW_CATALOG: tuple[FlowCheckerInfo, ...] = (
    FlowCheckerInfo(
        code="DET101",
        name="nondeterministic value reaches serialized bytes (flow)",
        rationale=(
            "DET001/DET002 flag wall-clock, unseeded-RNG and OS-entropy "
            "calls at their source line; laundering the value through a "
            "helper, an alias (x = time.time) or a dataclass field hides "
            "the source from per-file checks while the bytes still "
            "diverge between runs.  A process id (os.getpid(), os.getppid(), "
            "multiprocessing.current_process()) differs on every run "
            "the same way"
        ),
        hint=(
            "thread the value from the injected Clock / seeded "
            "generator instead, and key payloads by a stable id rather "
            "than the process id; the finding's chain lists every hop "
            "from source to sink"
        ),
    ),
    FlowCheckerInfo(
        code="DET103",
        name="set-iteration order reaches serialized bytes (flow)",
        rationale=(
            "DET003 sees set iteration only where the set's type is "
            "syntactically visible; an order-dependent list built from "
            "a set in one function and serialized two calls away "
            "still breaks PYTHONHASHSEED bit-identity"
        ),
        hint=(
            "sort at the materialization site (sorted(..., key=...)); "
            "the chain shows where order entered and where it escapes"
        ),
    ),
    FlowCheckerInfo(
        code="SEAL001",
        name="store mutation reachable from a post-seal context",
        rationale=(
            "after CorpusStore.seal() the memoised analysis indexes "
            "are shared; a mutating method reached from post-seal code "
            "raises SealedCorpusError at runtime at best and corrupts "
            "the shared indexes at worst"
        ),
        hint=(
            "move the mutation before seal(), or guard the call with "
            "try/except SealedCorpusError where rejection is expected"
        ),
    ),
)


def project_callgraph(modules: Sequence[ParsedModule]) -> CallGraph:
    """Symbol table + call graph for ``--dump-callgraph``."""
    return build_callgraph(SymbolTable.build(modules))


def analyze_project(modules: Sequence[ParsedModule]) -> list[Finding]:
    """Run every interprocedural checker; returns unsorted findings."""
    table = SymbolTable.build(modules)
    engine = TaintEngine(table)
    engine.run()

    raw: list[tuple[str, str, int, str]] = list(engine.findings)
    raw.extend(_seal_findings(table, engine))

    by_code = {info.code: info for info in FLOW_CATALOG}
    by_path = {module.path: module for module in modules}
    findings: list[Finding] = []
    seen: set[tuple[str, str, int, str]] = set()
    for code, path, line, message in raw:
        key = (code, path, line, message)
        if key in seen:
            continue
        seen.add(key)
        module = by_path.get(path)
        info = by_code[code]
        if module is None:
            continue
        findings.append(module.finding_at(code, line, 0, message, info.hint))
    return findings
