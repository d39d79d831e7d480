"""The lint-rule plugin contract and registry.

A rule is a class with a stable ``code``, a short ``name``, and a
``check`` method that walks one parsed module and yields
:class:`~repro.analysis.diagnostics.Diagnostic`s.  Rules self-register
via the :func:`register` decorator; the runner instantiates whatever the
registry holds, so adding a rule is: write the class, decorate it,
import its module from :mod:`repro.analysis.pylint_rules`.
"""

from __future__ import annotations

import abc
import ast
import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.flow.project import Project


@dataclasses.dataclass(frozen=True)
class ModuleUnderLint:
    """One parsed module handed to every applicable rule.

    Attributes:
        path: The file's path as given to the runner (used in
            diagnostics and in per-rule applicability tests).
        tree: The parsed AST.
        source: The raw source text.
    """

    path: str
    tree: ast.Module
    source: str

    def parts(self) -> tuple[str, ...]:
        """Path components, for directory-scoped applicability tests."""
        return tuple(self.path.replace("\\", "/").split("/"))


class LintRule(abc.ABC):
    """Base class every lint rule extends."""

    #: Stable machine-readable code (``REPRO1xx``).
    code: str = "REPRO100"
    #: Short kebab-case rule name.
    name: str = "unnamed-rule"
    #: One-line description shown by ``repro lint --rules``.
    description: str = ""

    def bind(self, project: "Project") -> None:
        """Give the rule the whole-file-set view before any check.

        The runner calls this once per run with a
        :class:`~repro.analysis.flow.project.Project` holding every
        module being linted, so interprocedural rules can resolve calls
        across files.  Rules run standalone (unit tests) never get
        bound; :meth:`project_for` falls back to a one-module project.
        """
        self._project: Project | None = project

    def project_for(self, module: ModuleUnderLint) -> "Project":
        """The bound project, or a single-module project as fallback."""
        project: Project | None = getattr(self, "_project", None)
        if project is not None and project.module_for(module.path) is module:
            return project
        from repro.analysis.flow.project import Project

        return Project.single(module)

    def applies_to(self, module: ModuleUnderLint) -> bool:
        """Whether this rule should run on the module (default: yes)."""
        return True

    @abc.abstractmethod
    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        """Yield one diagnostic per violation found in the module."""

    def diagnostic(
        self,
        module: ModuleUnderLint,
        node: ast.AST,
        message: str,
        fix_it: str | None = None,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        """Build a diagnostic anchored to an AST node of this module."""
        col_offset = getattr(node, "col_offset", None)
        return Diagnostic(
            severity=severity,
            code=self.code,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", None),
            col=None if col_offset is None else col_offset + 1,
            fix_it=fix_it,
        )


_REGISTRY: dict[str, type[LintRule]] = {}


def register(rule_class: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if rule_class.code in _REGISTRY:
        raise ValueError(
            f"duplicate lint rule code {rule_class.code!r}: "
            f"{_REGISTRY[rule_class.code].__name__} vs "
            f"{rule_class.__name__}"
        )
    _REGISTRY[rule_class.code] = rule_class
    return rule_class


def all_rules() -> tuple[LintRule, ...]:
    """Fresh instances of every registered rule, in code order."""
    return tuple(
        _REGISTRY[code]() for code in sorted(_REGISTRY)
    )
