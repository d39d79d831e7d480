"""REPRO113: re-application loops must back off in simulated time.

The growth chapter on resilient process acquisition gave investigators
:meth:`~repro.investigation.investigator.Investigator.apply_with_retry`,
which advances the simulation clock by ``RetryPolicy.delay(attempt)``
between applications — a denied application is re-reviewed by the
magistrate only after a realistic interval.  A hand-rolled loop that
re-applies *without* advancing time models an investigator hammering
the court with identical applications in the same instant, which both
distorts the simulation's timelines and hides the cost of denial.

Loops are discovered structurally: back edges of the function's CFG
(edges ``u -> v`` where ``v`` dominates ``u``) and their natural loops.
A loop whose body applies for process — directly, or through a helper
the project index resolves — must also contain backoff evidence: a
``delay``/``backoff`` computation or a clock advance.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.cfg import iter_element_nodes
from repro.analysis.flow.dominance import back_edges, natural_loop
from repro.analysis.flow.legality import terminal_name
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)

#: Calls that submit (or resubmit) a request for legal process.
_RETRY_CALLS = frozenset({"apply_for", "apply_with", "review"})

#: Call names that advance simulated time between attempts.
_BACKOFF_CALLS = frozenset(
    {"delay", "backoff", "sleep", "advance", "run_until", "wait"}
)


def _element_backs_off(element: ast.AST) -> bool:
    for node in iter_element_nodes(element):
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in _BACKOFF_CALLS or (
                name is not None and "backoff" in name
            ):
                return True
    return False


@register
class RetryBackoffRule(LintRule):
    """Process re-application loops must advance simulated time."""

    code = "REPRO113"
    name = "retry-backoff"
    description = (
        "a loop that re-applies for legal process must advance "
        "simulated time between attempts (RetryPolicy.delay or an "
        "explicit clock advance)"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        project = self.project_for(module)
        for info in project.functions():
            if info.module is not module:
                continue
            cfg = project.cfg(info)
            loops: dict[int, set[int]] = {}
            for tail, head in back_edges(cfg):
                loops.setdefault(head, set()).update(
                    natural_loop(cfg, tail, head)
                )
            reported: set[int] = set()
            for head, members in sorted(loops.items()):
                elements = [
                    element
                    for index in sorted(members)
                    for element in cfg.block(index).elements
                ]
                retries = [
                    call
                    for element in elements
                    for call in self._retry_calls(project, info, element)
                ]
                if not retries:
                    continue
                if any(_element_backs_off(e) for e in elements):
                    continue
                first = min(
                    retries,
                    key=lambda c: (c.lineno, c.col_offset),
                    default=None,
                )
                if first is None or id(first) in reported:
                    continue
                reported.add(id(first))
                yield self.diagnostic(
                    module,
                    first,
                    f"`{info.qualname}` re-applies for process inside "
                    "a loop with no backoff; every attempt lands at "
                    "the same simulated instant",
                    fix_it=(
                        "advance the clock between attempts "
                        "(`now += policy.delay(attempt)`) or use "
                        "`apply_with_retry`, which does"
                    ),
                )

    def _retry_calls(
        self,
        project: Project,
        info: FunctionInfo,
        element: ast.AST,
    ) -> list[ast.Call]:
        """Retry-family calls in one element, helpers resolved one hop."""
        found: list[ast.Call] = []
        for node in iter_element_nodes(element):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name in _RETRY_CALLS:
                found.append(node)
                continue
            targets = project.resolve_call(info.module, node)
            if len(targets) == 1 and self._applies_inside(targets[0]):
                found.append(node)
        return found

    @staticmethod
    def _applies_inside(callee: FunctionInfo) -> bool:
        """Whether a helper's own body submits a process application."""
        for statement in callee.node.body:
            for node in iter_element_nodes(statement):
                if (
                    isinstance(node, ast.Call)
                    and terminal_name(node.func) in _RETRY_CALLS
                ):
                    return True
        return False
