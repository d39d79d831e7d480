"""The lint runner: parse files once, run every rule project-wide.

The runner is filesystem-aware so the rules never have to be: it finds
Python files, parses each exactly once, builds one
:class:`~repro.analysis.flow.project.Project` over the whole file set
(so interprocedural rules can resolve calls across modules), binds every
registered rule to it, and collects diagnostics.  A file that fails to
parse yields a single ``REPRO100`` diagnostic rather than crashing the
run.

Output is deterministic: diagnostics are deduplicated and sorted by
``(path, line, col, code, message)``, so two runs over the same tree
are byte-identical.  Findings matching an inline suppression comment
(``# repro-lint: disable=CODE -- justification``, see
:mod:`repro.analysis.suppress`) are dropped and counted.  Per-rule
wall-clock timings are collected through the :mod:`repro.obs` clock and
surfaced on the :class:`LintRun` result for ``repro lint --timings``.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import repro
from repro import obs
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.project import Project
from repro.analysis.pylint_rules import ModuleUnderLint, all_rules
from repro.analysis.pylint_rules.base import LintRule
from repro.analysis.suppress import is_suppressed, parse_suppressions


def default_lint_root() -> Path:
    """The installed ``repro`` package — what ``repro lint`` checks."""
    return Path(repro.__file__).resolve().parent


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


@dataclasses.dataclass
class LintRun:
    """Everything one lint run produced.

    Attributes:
        diagnostics: Surviving findings, deduplicated and sorted by
            ``(path, line, col, code, message)``.
        timings: Per-rule wall-clock seconds, keyed by rule code
            (``"<parse>"`` covers reading and parsing the file set).
        files: Number of Python files linted.
        suppressed: Findings dropped by inline suppression comments.
    """

    diagnostics: list[Diagnostic]
    timings: dict[str, float]
    files: int
    suppressed: int


def _sort_key(
    diagnostic: Diagnostic,
) -> tuple[str, int, int, str, str]:
    return (
        diagnostic.path or "",
        diagnostic.line or 0,
        diagnostic.col or 0,
        diagnostic.code,
        diagnostic.message,
    )


def _parse_file(
    path: Path,
) -> ModuleUnderLint | Diagnostic:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        return Diagnostic(
            severity=Severity.ERROR,
            code="REPRO100",
            message=f"cannot read file: {error.strerror or error}",
            path=str(path),
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Diagnostic(
            severity=Severity.ERROR,
            code="REPRO100",
            message=f"syntax error: {error.msg}",
            path=str(path),
            line=error.lineno,
        )
    return ModuleUnderLint(path=str(path), tree=tree, source=source)


def run_lint(
    paths: list[Path] | None = None,
    rules: tuple[LintRule, ...] | None = None,
) -> LintRun:
    """Lint files/directories; defaults to the whole ``repro`` package."""
    targets = paths if paths else [default_lint_root()]
    files = iter_python_files(targets)

    timings: dict[str, float] = {}
    started = obs.clock()
    modules: list[ModuleUnderLint] = []
    diagnostics: list[Diagnostic] = []
    for path in files:
        parsed = _parse_file(path)
        if isinstance(parsed, Diagnostic):
            diagnostics.append(parsed)
        else:
            modules.append(parsed)
    timings["<parse>"] = obs.clock() - started

    project = Project(modules)
    active = tuple(rules) if rules is not None else all_rules()
    for rule in active:
        rule.bind(project)
        started = obs.clock()
        for module in modules:
            if rule.applies_to(module):
                diagnostics.extend(rule.check(module))
        timings[rule.code] = (
            timings.get(rule.code, 0.0) + obs.clock() - started
        )

    suppressions = {
        module.path: parse_suppressions(module.source)
        for module in modules
    }
    kept: list[Diagnostic] = []
    suppressed = 0
    for diagnostic in diagnostics:
        per_file = suppressions.get(diagnostic.path or "", {})
        if is_suppressed(per_file, diagnostic.code, diagnostic.line):
            suppressed += 1
        else:
            kept.append(diagnostic)

    unique = sorted(set(kept), key=_sort_key)
    return LintRun(
        diagnostics=unique,
        timings=timings,
        files=len(files),
        suppressed=suppressed,
    )


def lint_file(
    path: Path, rules: tuple[LintRule, ...] | None = None
) -> list[Diagnostic]:
    """Run every applicable rule over one file."""
    return run_lint([path], rules).diagnostics


def lint_paths(
    paths: list[Path] | None = None,
    rules: tuple[LintRule, ...] | None = None,
) -> list[Diagnostic]:
    """Lint files/directories; defaults to the whole ``repro`` package."""
    return run_lint(paths, rules).diagnostics
