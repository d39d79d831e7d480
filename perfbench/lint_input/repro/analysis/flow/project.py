"""The whole-file-set view the interprocedural analyses run against.

A :class:`Project` wraps every module handed to one lint run and builds,
lazily and exactly once, the artifacts that cross function boundaries:
a function index keyed by bare name and by qualified name, per-function
CFGs, and per-module symbol tables.  Call resolution is name-based and
deliberately honest about its limits: a bare call resolves through the
module's symbol table (local defs and project-internal imports), an
attribute call resolves by unique method name across the index, and
anything else resolves to nothing rather than to a guess.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterable

from repro.analysis.flow.cfg import Cfg, build_cfg
from repro.analysis.flow.symbols import (
    BindingKind,
    ScopedSymbolTable,
)
from repro.analysis.pylint_rules.base import ModuleUnderLint


@dataclasses.dataclass(frozen=True)
class FunctionInfo:
    """One function (or method) of the linted file set.

    Attributes:
        qualname: Dotted path within the module (``Class.method``).
        module: The module the function lives in.
        node: The function's AST node.
    """

    qualname: str
    module: ModuleUnderLint
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def name(self) -> str:
        """The function's bare name."""
        return self.node.name

    def parameter_names(self) -> list[str]:
        """Positional parameter names, ``self``/``cls`` included."""
        args = self.node.args
        return [a.arg for a in [*args.posonlyargs, *args.args]]


def _module_functions(
    module: ModuleUnderLint,
) -> list[FunctionInfo]:
    found: list[FunctionInfo] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = (
                    f"{prefix}.{child.name}" if prefix else child.name
                )
                found.append(
                    FunctionInfo(
                        qualname=qualname, module=module, node=child
                    )
                )
                walk(child, qualname)
            elif isinstance(child, ast.ClassDef):
                walk(
                    child,
                    f"{prefix}.{child.name}" if prefix else child.name,
                )
    walk(module.tree, "")
    return found


class Project:
    """Every module of one lint run, plus cached flow artifacts."""

    def __init__(self, modules: Iterable[ModuleUnderLint]) -> None:
        self.modules: list[ModuleUnderLint] = list(modules)
        self._by_path = {m.path: m for m in self.modules}
        self._functions: list[FunctionInfo] | None = None
        self._by_name: dict[str, list[FunctionInfo]] | None = None
        self._cfgs: dict[int, Cfg] = {}
        self._symtabs: dict[str, ScopedSymbolTable] = {}

    @classmethod
    def single(cls, module: ModuleUnderLint) -> "Project":
        """A one-module project, for rules run outside a full lint."""
        return cls([module])

    # -- indexes ----------------------------------------------------------------

    def functions(self) -> list[FunctionInfo]:
        """Every function in the project, in (path, position) order."""
        if self._functions is None:
            self._functions = [
                info
                for module in self.modules
                for info in _module_functions(module)
            ]
        return self._functions

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """All project functions with the given bare name."""
        if self._by_name is None:
            index: dict[str, list[FunctionInfo]] = {}
            for info in self.functions():
                index.setdefault(info.name, []).append(info)
            self._by_name = index
        return self._by_name.get(name, [])

    def module_for(self, path: str) -> ModuleUnderLint | None:
        """The module with the given path, if it is in this project."""
        return self._by_path.get(path)

    # -- cached artifacts --------------------------------------------------------

    def cfg(self, info: FunctionInfo) -> Cfg:
        """The (cached) CFG of one function."""
        key = id(info.node)
        cached = self._cfgs.get(key)
        if cached is None:
            cached = build_cfg(info.node)
            self._cfgs[key] = cached
        return cached

    def symbols(self, module: ModuleUnderLint) -> ScopedSymbolTable:
        """The (cached) symbol table of one module."""
        cached = self._symtabs.get(module.path)
        if cached is None:
            cached = ScopedSymbolTable(module.tree)
            self._symtabs[module.path] = cached
        return cached

    # -- call resolution ---------------------------------------------------------

    def resolve_call(
        self, module: ModuleUnderLint, call: ast.Call
    ) -> list[FunctionInfo]:
        """Project functions a call might target (empty when unknown).

        Bare names resolve through the module's symbol table to local
        definitions; attribute calls resolve by method name when exactly
        one project function carries that name (ambiguity resolves to
        nothing — the analyses stay conservative rather than guessing).
        """
        func = call.func
        if isinstance(func, ast.Name):
            table = self.symbols(module)
            binding = table.resolve(func.id, within=func)
            if binding is not None and binding.kind is BindingKind.FUNCTION:
                return [
                    info
                    for info in self.functions()
                    if info.module is module
                    and info.node is binding.node
                ]
            if (
                binding is not None
                and binding.kind is BindingKind.FROM_IMPORT
                and binding.origin is not None
            ):
                candidates = self.functions_named(binding.origin)
                # Only module-level functions are importable by name.
                return [
                    c for c in candidates if "." not in c.qualname
                ]
            return []
        if isinstance(func, ast.Attribute):
            candidates = [
                c
                for c in self.functions_named(func.attr)
                # Attribute calls target methods (or module attributes);
                # a unique name either way is an unambiguous target.
            ]
            if len(candidates) == 1:
                return candidates
            return []
        return []
