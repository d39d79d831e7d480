"""REPRO101: concrete Technique subclasses must declare their contract.

A technique that keeps the base class's ``name`` shows up as "unnamed
technique" in every assessment, and one without ``required_actions``
cannot be classified at all — both silently break the Section IV
advisor.  The rule flags any concrete class deriving from ``Technique``
that does not override both members in its own body.
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

_ABSTRACT_DECORATORS = {"abstractmethod", "abstractproperty"}


def _base_names(node: ast.ClassDef) -> list[str]:
    """Terminal names of a class's bases (``a.b.C`` -> ``C``)."""
    names: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_abstract(node: ast.ClassDef) -> bool:
    """Whether the class itself declares abstract members."""
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in item.decorator_list:
            terminal = (
                decorator.attr
                if isinstance(decorator, ast.Attribute)
                else decorator.id if isinstance(decorator, ast.Name) else ""
            )
            if terminal in _ABSTRACT_DECORATORS:
                return True
    return False


def _class_assigns(node: ast.ClassDef) -> set[str]:
    """Names bound by class-level assignments."""
    bound: set[str] = set()
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.value is not None:
                bound.add(item.target.id)
    return bound


def _class_methods(node: ast.ClassDef) -> set[str]:
    """Names of functions defined directly in the class body."""
    return {
        item.name
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@register
class TechniqueContractRule(LintRule):
    """Concrete ``Technique`` subclasses override name/required_actions."""

    code = "REPRO101"
    name = "technique-contract"
    description = (
        "every concrete Technique subclass overrides `name` and "
        "`required_actions`"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            if "Technique" not in bases or node.name == "Technique":
                continue
            if _is_abstract(node):
                continue
            assigns = _class_assigns(node)
            methods = _class_methods(node)
            if "name" not in assigns and "name" not in methods:
                yield self.diagnostic(
                    module,
                    node,
                    f"Technique subclass {node.name!r} does not "
                    "override the `name` class attribute; assessments "
                    "will report it as 'unnamed technique'",
                    fix_it=(
                        f"add `name = \"...\"` to the body of "
                        f"{node.name}"
                    ),
                )
            if "required_actions" not in methods:
                yield self.diagnostic(
                    module,
                    node,
                    f"Technique subclass {node.name!r} does not define "
                    "`required_actions`; the advisor cannot classify "
                    "its legal feasibility",
                    fix_it=(
                        f"define `required_actions(self)` on "
                        f"{node.name} returning every acquisition the "
                        "technique performs"
                    ),
                )
