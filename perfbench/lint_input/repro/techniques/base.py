"""The technique interface: what a forensic technique must declare.

The paper's central message is that a technique is only useful to law
enforcement if the *acquisitions it performs* are legal under some
obtainable process.  Every technique in this package therefore declares
its acquisitions as :class:`~repro.core.action.InvestigativeAction` values
so the :class:`~repro.core.advisor.ResearchAdvisor` can classify it before
it ever runs.
"""

from __future__ import annotations

import abc

from repro.core.action import InvestigativeAction
from repro.core.advisor import ResearchAdvisor, TechniqueAssessment
from repro.core.engine import ComplianceEngine
from repro.core.enums import ProcessKind


class Technique(abc.ABC):
    """Base class for investigative techniques."""

    #: Human-readable technique name; subclasses override.
    name: str = "unnamed technique"

    @abc.abstractmethod
    def required_actions(self) -> list[InvestigativeAction]:
        """Every acquisition the technique performs, engine-ready."""

    def assess(
        self, advisor: ResearchAdvisor | None = None
    ) -> TechniqueAssessment:
        """Classify this technique's legal feasibility (paper section IV)."""
        advisor = advisor or ResearchAdvisor()
        return advisor.assess(self.name, self.required_actions())

    def required_process(
        self, engine: ComplianceEngine | None = None
    ) -> ProcessKind:
        """The strongest process any of this technique's actions needs.

        A technique that declares no acquisitions touches nothing and
        therefore needs no process at all.
        """
        engine = engine or ComplianceEngine()
        return max(
            (
                engine.evaluate(action).required_process
                for action in self.required_actions()
            ),
            default=ProcessKind.NONE,
        )
