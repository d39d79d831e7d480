"""REPRO106: no mutable default arguments.

A ``def f(x, seen=[])`` shares one list across every call — in this
codebase that turns a pure compliance check into one that remembers
earlier scenes, which is exactly the class of bug the determinism
benchmarks cannot catch (results stay deterministic, just wrong).
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

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "deque"}
_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def _is_mutable_default(node: ast.expr) -> bool:
    """Whether a default expression evaluates to a shared mutable."""
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


@register
class MutableDefaultRule(LintRule):
    """Function defaults must not be mutable objects."""

    code = "REPRO106"
    name = "mutable-default-argument"
    description = "no list/dict/set literals as function defaults"

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(
                default
                for default in node.args.kw_defaults
                if default is not None
            )
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.diagnostic(
                        module,
                        default,
                        f"function {node.name!r} uses a mutable "
                        "default argument; the object is shared "
                        "across calls",
                        fix_it=(
                            "default to None and construct the "
                            "mutable inside the function body"
                        ),
                    )
