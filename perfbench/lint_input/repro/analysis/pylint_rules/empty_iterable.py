"""REPRO104: ``max()``/``min()`` over a possibly-empty iterable.

``max(iterable)`` raises ``ValueError`` on an empty iterable; with no
``default=`` the call is a latent crash on every degenerate input (a
technique with zero declared actions took down ``required_process``
this way).  The rule flags single-argument ``max``/``min`` calls with
no ``default=``, unless the enclosing function already established an
emptiness guard — an earlier ``if not x: return``/``raise`` — before
the call.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)


def _is_emptiness_guard(statement: ast.stmt) -> bool:
    """Whether a statement is ``if <emptiness-test>: return/raise``."""
    if not isinstance(statement, ast.If):
        return False
    if not statement.body:
        return False
    if not isinstance(statement.body[-1], (ast.Return, ast.Raise)):
        return False
    test = statement.test
    # `if not x`, `if not x.y`, `if not len(x)`
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return True
    # `if len(x) == 0`
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Call)
        and isinstance(test.left.func, ast.Name)
        and test.left.func.id == "len"
    ):
        return True
    return False


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an AST without descending into nested function/class scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield child
        yield from _walk_same_scope(child)


def _bare_extremum_calls(statement: ast.stmt) -> Iterator[ast.Call]:
    """``max``/``min`` calls in a statement that lack a safe shape.

    Safe shapes: two or more positional arguments (``max(a, b)``), a
    ``default=`` keyword, or starred arguments (which we cannot reason
    about statically).
    """
    candidates = [statement]
    candidates.extend(_walk_same_scope(statement))
    for node in candidates:
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Name):
            continue
        if node.func.id not in {"max", "min"}:
            continue
        if len(node.args) != 1:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            continue
        if any(keyword.arg == "default" for keyword in node.keywords):
            continue
        yield node


@register
class EmptyIterableExtremumRule(LintRule):
    """Single-argument ``max``/``min`` needs ``default=`` or a guard."""

    code = "REPRO104"
    name = "empty-iterable-extremum"
    description = (
        "max()/min() over a possibly-empty iterable must pass "
        "default= (or follow an emptiness guard)"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_body(module, node.body)

    def _check_body(
        self, module: ModuleUnderLint, body: list[ast.stmt]
    ) -> Iterator[Diagnostic]:
        guarded = False
        for statement in body:
            if guarded:
                break
            for call in _bare_extremum_calls(statement):
                function = call.func.id  # type: ignore[union-attr]
                yield self.diagnostic(
                    module,
                    call,
                    f"`{function}()` over a single iterable with no "
                    "`default=`; raises ValueError when the iterable "
                    "is empty",
                    fix_it=(
                        f"pass `default=...` to `{function}()`, or "
                        "guard the call with an explicit emptiness "
                        "check that returns early"
                    ),
                )
            if _is_emptiness_guard(statement):
                guarded = True
