"""REPRO111: fruit of the poisonous tree, proven by dataflow.

The plan checker already propagates taint along *declared* evidence
edges (``PLAN003``).  This rule proves the same doctrine over the actual
code: a value derived from an **ungated** acquisition (any REPRO110
violation that is not suppressed with a legal justification) is poison,
and feeding it into a further acquisition or into an application for
legal process would be suppressed under *Wong Sun* — the derivative use
is unlawful even though the second step looks valid in isolation.

Facts are ``derived-from-acquisition`` origins propagated through:

* assignments, tuple unpacking, augmented assignment, ``for`` targets,
  ``with ... as`` bindings, and walrus expressions;
* expressions — attribute access and arbitrary operators pass taint
  through, so ``hits[0].peer`` stays derived from ``hits``;
* calls — **interprocedurally**, via memoized per-function summaries:
  whether a function returns taint from its own ungated source, which
  parameters flow to its return value, and which parameters reach an
  acquisition or application sink inside it.  Call targets resolve
  through the project index (:mod:`repro.analysis.flow.project`);
  unresolved calls conservatively pass taint from arguments to result.

``derived_from=`` keywords are exempt sinks: passing an evidence id
there *records* provenance honestly (the plan-IR edge PLAN003 audits),
which is the lawful way to consume derived evidence.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.cfg import iter_element_nodes
from repro.analysis.flow.dataflow import must_pass_positions
from repro.analysis.flow.legality import (
    ACQUISITION_CAPABILITIES,
    capability_calls,
    is_gate_element,
    terminal_name,
)
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)
from repro.analysis.suppress import is_suppressed, parse_suppressions
from repro.core.enums import LegalSource

#: Calls that *consume* evidence in a legally significant way: further
#: acquisitions, and applications for legal process built on the facts.
_APPLICATION_SINKS: frozenset[str] = frozenset(
    {"apply_for", "apply_with", "to_application", "add_fact"}
)

_SINKS: frozenset[str] = ACQUISITION_CAPABILITIES | _APPLICATION_SINKS

#: The taint origin for "derived from an ungated acquisition here".
_SOURCE = "<acquisition>"

_EMPTY: frozenset[object] = frozenset()


@dataclasses.dataclass(frozen=True)
class _Hit:
    """One source-to-sink flow found inside a function."""

    sink: ast.Call
    sink_name: str
    source_desc: str
    via: str | None = None  # callee qualname for interprocedural flows


@dataclasses.dataclass
class _Facts:
    """Everything the analysis learns about one function."""

    returns_taint: bool = False
    params_to_return: frozenset[int] = frozenset()
    params_to_sink: dict[int, str] = dataclasses.field(
        default_factory=dict
    )
    hits: list[_Hit] = dataclasses.field(default_factory=list)


def _body_statements(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.stmt]:
    """Every statement of a function body, nested scopes excluded."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(reversed(function.body))
    while stack:
        statement = stack.pop()
        if isinstance(
            statement,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        out.append(statement)
        inner: list[ast.stmt] = []
        for field in (
            "body",
            "orelse",
            "finalbody",
        ):
            inner.extend(getattr(statement, field, []) or [])
        for handler in getattr(statement, "handlers", []) or []:
            inner.extend(handler.body)
        for case in getattr(statement, "cases", []) or []:
            inner.extend(case.body)
        stack.extend(reversed(inner))
    return out


class _Analyzer:
    """The per-project taint engine, memoizing function facts."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._facts: dict[int, _Facts] = {}
        self._in_progress: set[int] = set()

    # -- sources ----------------------------------------------------------------

    def _ungated_sources(self, info: FunctionInfo) -> dict[int, ast.Call]:
        """Unsanctioned acquisition calls, keyed by ``id(call)``.

        A call is a poison source when it is ungated per REPRO110 *and*
        not suppressed with a justification — a justified suppression
        asserts a statutory exception, which makes the acquisition (and
        everything derived from it) lawful.
        """
        suppressions = parse_suppressions(info.module.source)
        cfg = self.project.cfg(info)
        gated = must_pass_positions(cfg, is_gate_element)
        sources: dict[int, ast.Call] = {}
        for block in cfg.reachable_blocks():
            for position, element in enumerate(block.elements):
                for call in capability_calls(element):
                    if gated[(block.index, position)]:
                        continue
                    if is_gate_element(element):
                        continue
                    if is_suppressed(
                        suppressions, "REPRO110", call.lineno
                    ):
                        continue
                    sources[id(call)] = call
        return sources

    # -- per-function facts ------------------------------------------------------

    def facts(self, info: FunctionInfo) -> _Facts:
        key = id(info.node)
        cached = self._facts.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            # Recursion: answer optimistically for the inner query; the
            # outer computation is what gets cached.
            return _Facts()
        self._in_progress.add(key)
        try:
            computed = self._compute(info)
        finally:
            self._in_progress.discard(key)
        self._facts[key] = computed
        return computed

    def _compute(self, info: FunctionInfo) -> _Facts:
        sources = self._ungated_sources(info)
        source_desc = self._describe_sources(sources)
        parameters = info.parameter_names()
        env: dict[str, frozenset[object]] = {
            name: frozenset({index})
            for index, name in enumerate(parameters)
        }
        statements = _body_statements(info.node)

        # Fixpoint over the (flow-insensitive) assignment relation.
        for _ in range(len(statements) + 2):
            changed = False
            for statement in statements:
                changed |= self._bind_statement(
                    statement, env, sources, info
                )
            if not changed:
                break

        facts = _Facts()
        for statement in statements:
            self._scan_statement(
                statement, env, sources, source_desc, info, facts
            )
        return facts

    @staticmethod
    def _describe_sources(sources: dict[int, ast.Call]) -> str:
        if not sources:
            return "an ungated acquisition"
        first = min(sources.values(), key=lambda c: c.lineno)
        return (
            f"the ungated `{terminal_name(first.func)}(...)` "
            f"at line {first.lineno}"
        )

    # -- binding pass ------------------------------------------------------------

    def _bind_statement(
        self,
        statement: ast.stmt,
        env: dict[str, frozenset[object]],
        sources: dict[int, ast.Call],
        info: FunctionInfo,
    ) -> bool:
        changed = False

        def bind(target: ast.expr, origins: frozenset[object]) -> None:
            nonlocal changed
            if isinstance(target, ast.Name):
                before = env.get(target.id, _EMPTY)
                after = before | origins
                if after != before:
                    env[target.id] = after
                    changed = True
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind(element, origins)
            elif isinstance(target, ast.Starred):
                bind(target.value, origins)

        if isinstance(statement, ast.Assign):
            origins = self._origins(statement.value, env, sources, info)
            for target in statement.targets:
                bind(target, origins)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                bind(
                    statement.target,
                    self._origins(statement.value, env, sources, info),
                )
        elif isinstance(statement, ast.AugAssign):
            bind(
                statement.target,
                self._origins(statement.value, env, sources, info),
            )
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            bind(
                statement.target,
                self._origins(statement.iter, env, sources, info),
            )
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if item.optional_vars is not None:
                    bind(
                        item.optional_vars,
                        self._origins(
                            item.context_expr, env, sources, info
                        ),
                    )
        # Walrus targets, wherever they hide in an expression.
        for node in ast.walk(statement):
            if isinstance(node, ast.NamedExpr):
                bind(
                    node.target,
                    self._origins(node.value, env, sources, info),
                )
        return changed

    # -- expression origins ------------------------------------------------------

    def _origins(
        self,
        expr: ast.expr,
        env: dict[str, frozenset[object]],
        sources: dict[int, ast.Call],
        info: FunctionInfo,
    ) -> frozenset[object]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Lambda):
            return _EMPTY
        if isinstance(expr, ast.Call):
            return self._call_origins(expr, env, sources, info)
        combined: frozenset[object] = _EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                combined |= self._origins(child, env, sources, info)
            elif isinstance(child, ast.keyword):
                combined |= self._origins(
                    child.value, env, sources, info
                )
        return combined

    def _call_origins(
        self,
        call: ast.Call,
        env: dict[str, frozenset[object]],
        sources: dict[int, ast.Call],
        info: FunctionInfo,
    ) -> frozenset[object]:
        out: frozenset[object] = _EMPTY
        if id(call) in sources:
            out |= {_SOURCE}
        # A derived result stays derived: taint on the receiver (or on a
        # callable-valued name) flows to the call's value.
        out |= self._origins(call.func, env, sources, info)

        argument_origins = [
            self._origins(argument, env, sources, info)
            for argument in call.args
        ]
        keyword_origins = {
            keyword.arg: self._origins(
                keyword.value, env, sources, info
            )
            for keyword in call.keywords
            if keyword.arg is not None
        }

        targets = self.project.resolve_call(info.module, call)
        if len(targets) != 1:
            # Unknown callee: conservatively pass every argument's taint
            # through to the result.
            for origins in argument_origins:
                out |= origins
            for origins in keyword_origins.values():
                out |= origins
            return out

        callee = targets[0]
        summary = self.facts(callee)
        if summary.returns_taint:
            out |= {_SOURCE}
        for index, origins in self._map_arguments(
            call, callee, argument_origins, keyword_origins
        ):
            if index in summary.params_to_return:
                out |= origins
        return out

    @staticmethod
    def _map_arguments(
        call: ast.Call,
        callee: FunctionInfo,
        argument_origins: list[frozenset[object]],
        keyword_origins: dict[str, frozenset[object]],
    ) -> list[tuple[int, frozenset[object]]]:
        """Pair caller argument origins with callee parameter indexes."""
        parameters = callee.parameter_names()
        offset = (
            1
            if isinstance(call.func, ast.Attribute)
            and parameters[:1] in (["self"], ["cls"])
            else 0
        )
        mapped: list[tuple[int, frozenset[object]]] = []
        for position, origins in enumerate(argument_origins):
            index = position + offset
            if index < len(parameters):
                mapped.append((index, origins))
        for name, origins in keyword_origins.items():
            if name in parameters:
                mapped.append((parameters.index(name), origins))
        return mapped

    # -- sink scan ---------------------------------------------------------------

    def _scan_statement(
        self,
        statement: ast.stmt,
        env: dict[str, frozenset[object]],
        sources: dict[int, ast.Call],
        source_desc: str,
        info: FunctionInfo,
        facts: _Facts,
    ) -> None:
        if isinstance(statement, ast.Return) and statement.value is not None:
            origins = self._origins(statement.value, env, sources, info)
            if _SOURCE in origins:
                facts.returns_taint = True
            facts.params_to_return = facts.params_to_return | frozenset(
                origin for origin in origins if isinstance(origin, int)
            )
        for node in iter_element_nodes(statement):
            if isinstance(node, ast.Call):
                self._scan_call(
                    node, env, sources, source_desc, info, facts
                )

    def _scan_call(
        self,
        call: ast.Call,
        env: dict[str, frozenset[object]],
        sources: dict[int, ast.Call],
        source_desc: str,
        info: FunctionInfo,
        facts: _Facts,
    ) -> None:
        name = terminal_name(call.func)

        def consume(origins: frozenset[object], sink_name: str,
                    via: str | None) -> None:
            if _SOURCE in origins:
                facts.hits.append(
                    _Hit(
                        sink=call,
                        sink_name=sink_name,
                        source_desc=source_desc,
                        via=via,
                    )
                )
            for origin in origins:
                if isinstance(origin, int):
                    facts.params_to_sink.setdefault(origin, sink_name)

        if name in _SINKS:
            for argument in call.args:
                consume(
                    self._origins(argument, env, sources, info),
                    name,
                    None,
                )
            for keyword in call.keywords:
                if keyword.arg == "derived_from":
                    # Recording provenance is the lawful channel.
                    continue
                consume(
                    self._origins(keyword.value, env, sources, info),
                    name,
                    None,
                )
            return

        targets = self.project.resolve_call(info.module, call)
        if len(targets) != 1:
            return
        callee = targets[0]
        summary = self.facts(callee)
        if not summary.params_to_sink:
            return
        argument_origins = [
            self._origins(argument, env, sources, info)
            for argument in call.args
        ]
        keyword_origins = {
            keyword.arg: self._origins(keyword.value, env, sources, info)
            for keyword in call.keywords
            if keyword.arg is not None
        }
        for index, origins in self._map_arguments(
            call, callee, argument_origins, keyword_origins
        ):
            sink_name = summary.params_to_sink.get(index)
            if sink_name is not None:
                consume(origins, sink_name, callee.qualname)


@register
class PoisonousFlowRule(LintRule):
    """Derived-from-ungated-acquisition values may not feed acquisitions."""

    code = "REPRO111"
    name = "poisonous-flow"
    description = (
        "values derived from an ungated acquisition must not flow into "
        "further acquisitions or process applications (fruit of the "
        "poisonous tree), tracked interprocedurally"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        project = self.project_for(module)
        analyzer = self._analyzer(project)
        for info in project.functions():
            if info.module is not module:
                continue
            for hit in analyzer.facts(info).hits:
                route = (
                    f" (reaching the acquisition inside "
                    f"`{hit.via}`)"
                    if hit.via
                    else ""
                )
                diagnostic = self.diagnostic(
                    module,
                    hit.sink,
                    f"value derived from {hit.source_desc} flows into "
                    f"`{hit.sink_name}(...)`{route}; the derivative "
                    "product would be suppressed as fruit of the "
                    "poisonous tree",
                    fix_it=(
                        "gate the originating acquisition (cure the "
                        "REPRO110 above it), or establish an "
                        "independent source for this input"
                    ),
                )
                yield dataclasses.replace(
                    diagnostic,
                    source=LegalSource.DOCTRINE,
                    authorities=("wong_sun", "nix_v_williams"),
                )

    def _analyzer(self, project: Project) -> _Analyzer:
        cached: _Analyzer | None = getattr(self, "_cached_analyzer", None)
        if cached is not None and cached.project is project:
            return cached
        analyzer = _Analyzer(project)
        self._cached_analyzer = analyzer
        return analyzer
