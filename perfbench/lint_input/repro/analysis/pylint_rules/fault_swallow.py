"""REPRO107: techniques may not silently swallow injected faults.

The resilience contract for Section IV techniques is *graceful
degradation, honestly reported*: on degraded input a ``run``/``detect``
style method returns a confidence-scored partial result instead of
raising.  The failure mode this rule guards against is the dishonest
half of that bargain — an ``except FaultError: pass`` that eats the
fault and lets a full-confidence result escape, which is exactly the
kind of silent evidence-quality laundering a suppression hearing exists
to catch.

A handler that catches a fault-family exception inside a technique entry
point must either re-raise or visibly record the degradation: mention
``confidence`` or ``provenance``, or call a ``record*`` method — and it
must do so on **every** path through the handler.  The check runs a
must-pass analysis over the handler body's own CFG, so a handler that
records only inside one branch (``if partial: confidence = 0.5``) is
still a finding: the other branch launders the fault.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.cfg import (
    build_statements_cfg,
    iter_element_nodes,
)
from repro.analysis.flow.dataflow import all_paths_cross
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)

#: Exception-name suffixes treated as the injected-fault family.
_FAULT_NAME_SUFFIXES = ("FaultError", "Fault", "ReadError")

#: Method-name prefixes that are technique entry points.
_ENTRY_POINT_PREFIXES = (
    "run",
    "detect",
    "correlate",
    "investigate",
    "assess",
)

#: Identifiers whose presence in a handler counts as recording the
#: degradation in the result.
_RECORDING_NAMES = {"confidence", "provenance"}


def _terminal_name(node: ast.expr | None) -> str:
    """``a.b.C`` or ``C`` -> ``"C"``; anything else -> ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _caught_fault_names(handler: ast.ExceptHandler) -> list[str]:
    """Fault-family exception names this handler catches."""
    exception_type = handler.type
    if exception_type is None:
        # A bare ``except:`` catches FaultError along with everything
        # else and is flagged the same way.
        return ["<bare except>"]
    types = (
        exception_type.elts
        if isinstance(exception_type, ast.Tuple)
        else [exception_type]
    )
    return [
        name
        for name in (_terminal_name(t) for t in types)
        if name.endswith(_FAULT_NAME_SUFFIXES)
    ]


def _records_element(element: ast.AST) -> bool:
    """Whether evaluating this CFG element records the degradation."""
    for node in iter_element_nodes(element):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and node.id in _RECORDING_NAMES:
            return True
        if isinstance(node, ast.Attribute) and (
            node.attr in _RECORDING_NAMES or node.attr.startswith("record")
        ):
            return True
        if isinstance(node, ast.keyword) and node.arg in _RECORDING_NAMES:
            return True
    return False


def _records_on_all_paths(handler: ast.ExceptHandler) -> bool:
    """Whether every path through the handler re-raises or records.

    Built on the handler body's own CFG: a recording statement guarded
    by a condition covers only the paths that execute it.
    """
    cfg = build_statements_cfg(list(handler.body))
    return all_paths_cross(cfg, _records_element)


def _is_entry_point(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return function.name.startswith(_ENTRY_POINT_PREFIXES)


@register
class FaultSwallowRule(LintRule):
    """Fault-family exceptions must surface in confidence/provenance."""

    code = "REPRO107"
    name = "fault-swallow"
    description = (
        "technique run/detect methods may not catch FaultError without "
        "recording it in the result's confidence or provenance on "
        "every handler path"
    )

    def applies_to(self, module: ModuleUnderLint) -> bool:
        return "techniques" in module.parts()

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for function in ast.walk(module.tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not _is_entry_point(function):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = _caught_fault_names(node)
                if not caught or _records_on_all_paths(node):
                    continue
                names = ", ".join(dict.fromkeys(caught))
                yield self.diagnostic(
                    module,
                    node,
                    f"`{function.name}` catches {names} without "
                    "recording the degradation on every handler path; "
                    "the caller can receive a full-confidence result "
                    "built from faulted input",
                    fix_it=(
                        "re-raise, or reflect the fault in the result's "
                        "`confidence`/`provenance` (or a `record*` call) "
                        "on every path through the handler"
                    ),
                )
