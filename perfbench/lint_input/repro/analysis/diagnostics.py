"""Structured diagnostics shared by both static-analysis targets.

The plan checker and the AST linter both answer the same shape of
question — "something about this artifact is wrong, here is where, here
is the law or invariant it violates, and here is how to fix it" — so
they share one :class:`Diagnostic` record.  Plan diagnostics anchor to a
plan step; lint diagnostics anchor to a file and line.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.core.enums import LegalSource


class Severity(enum.IntEnum):
    """How bad a finding is, ordered so ``max()`` picks the worst."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        """Lower-case label used in rendered diagnostics."""
        return self.name.lower()


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding from the plan checker or the linter.

    Attributes:
        severity: How bad the finding is.
        code: Stable machine-readable code (``PLAN0xx`` for plan
            findings, ``REPRO1xx`` for lint rules).
        message: Human-readable statement of the problem.
        path: Source file the finding anchors to (lint findings).
        line: 1-based line number within ``path`` (lint findings).
        col: 1-based column within ``line`` (lint findings; ``None``
            when the producing rule predates column tracking).
        step: 1-based plan step number (plan findings).
        source: The body of law the finding derives from, when one does.
        authorities: Citation keys into the
            :class:`~repro.core.caselaw.AuthorityRegistry`.
        fix_it: A concrete suggested fix ("obtain a search warrant
            before step 3").
    """

    severity: Severity
    code: str
    message: str
    path: str | None = None
    line: int | None = None
    col: int | None = None
    step: int | None = None
    source: LegalSource | None = None
    authorities: tuple[str, ...] = ()
    fix_it: str | None = None

    def render(self) -> str:
        """One diagnostic as a compiler-style line (plus fix-it line)."""
        where = ""
        if self.path is not None:
            where = f"{self.path}:{self.line if self.line else '?'}: "
            if self.line and self.col:
                where = f"{self.path}:{self.line}:{self.col}: "
        elif self.step is not None:
            where = f"step {self.step}: "
        cites = f" [{', '.join(self.authorities)}]" if self.authorities else ""
        text = (
            f"{where}{self.severity.label}: {self.code}: "
            f"{self.message}{cites}"
        )
        if self.fix_it:
            text += f"\n    fix: {self.fix_it}"
        return text


def worst_severity(diagnostics: list[Diagnostic]) -> Severity | None:
    """The worst severity present, or ``None`` for an empty list."""
    return max(
        (diagnostic.severity for diagnostic in diagnostics), default=None
    )


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    """Whether any diagnostic is an :attr:`Severity.ERROR`."""
    return any(
        diagnostic.severity is Severity.ERROR for diagnostic in diagnostics
    )


def render_report(diagnostics: list[Diagnostic]) -> str:
    """Render a list of diagnostics as a multi-line report."""
    if not diagnostics:
        return "no findings"
    lines = [diagnostic.render() for diagnostic in diagnostics]
    errors = sum(
        1 for d in diagnostics if d.severity is Severity.ERROR
    )
    warnings = sum(
        1 for d in diagnostics if d.severity is Severity.WARNING
    )
    lines.append(
        f"{len(diagnostics)} finding(s): "
        f"{errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)
