"""Suppression hearings.

The defense moves to suppress; the court applies the exclusionary rule via
the :class:`~repro.evidence.admissibility.AdmissibilityAnalyzer` and
reports what survives.  This is the end of the paper's causal chain:
technique → (il)legal acquisition → admission or suppression.
"""

from __future__ import annotations

import dataclasses

from repro.core.engine import ComplianceEngine
from repro.core.enums import Admissibility
from repro.evidence.admissibility import (
    AdmissibilityAnalyzer,
    AdmissibilityFinding,
)
from repro.court.doctrines import ProsecutionResponse
from repro.evidence.custody import ChainOfCustody
from repro.evidence.items import EvidenceItem


@dataclasses.dataclass(frozen=True)
class SuppressionOutcome:
    """The hearing's complete outcome."""

    findings: dict[int, AdmissibilityFinding]
    admitted: tuple[EvidenceItem, ...]
    suppressed: tuple[EvidenceItem, ...]

    @property
    def suppression_rate(self) -> float:
        """Fraction of offered items suppressed (either way)."""
        total = len(self.admitted) + len(self.suppressed)
        return len(self.suppressed) / total if total else 0.0

    def outcome_for(self, item: EvidenceItem) -> Admissibility:
        """The court's outcome for one item."""
        return self.findings[item.evidence_id].outcome


class SuppressionHearing:
    """Runs the exclusionary-rule analysis over offered evidence."""

    def __init__(self, engine: ComplianceEngine | None = None) -> None:
        self._analyzer = AdmissibilityAnalyzer(engine)

    def hear(
        self,
        items: list[EvidenceItem],
        custody: dict[int, ChainOfCustody] | None = None,
        responses: dict[int, "ProsecutionResponse"] | None = None,
    ) -> SuppressionOutcome:
        """Hold the hearing.

        Args:
            items: Evidence the prosecution offers.
            custody: Optional custody chains keyed by evidence id.
            responses: Optional prosecution responses (good faith,
                independent source, inevitable discovery, attenuation)
                keyed by evidence id.

        Returns:
            Findings per item plus the admitted/suppressed partition.
        """
        findings = self._analyzer.analyze(items, custody, responses)
        admitted = tuple(
            item
            for item in items
            if findings[item.evidence_id].outcome is Admissibility.ADMISSIBLE
        )
        suppressed = tuple(
            item
            for item in items
            if findings[item.evidence_id].outcome
            is not Admissibility.ADMISSIBLE
        )
        return SuppressionOutcome(
            findings=findings, admitted=admitted, suppressed=suppressed
        )
