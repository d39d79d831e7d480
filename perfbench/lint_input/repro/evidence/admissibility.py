"""Admissibility analysis: the exclusionary rule, executable.

Combines four checks for each evidence item:

1. **legality** — did the investigator hold the process the compliance
   engine says the acquisition required?
2. **integrity** — does the chain of custody (if provided) hold?
3. **prosecution responses** — good-faith reliance, independent source,
   inevitable discovery, attenuation (see :mod:`repro.court.doctrines`)
   can save an item that fails (1);
4. **taint** — an item deriving from suppressed evidence falls with it
   (fruit of the poisonous tree), unless its own prosecution response
   prevails.

Resolution runs parents-first so taint propagates through derivation
chains after responses are weighed.
"""

from __future__ import annotations

import dataclasses

from repro.core.engine import ComplianceEngine
from repro.core.enums import Admissibility
from repro.core.ruling import Ruling
from repro.evidence.custody import ChainOfCustody
from repro.evidence.items import EvidenceItem


@dataclasses.dataclass(frozen=True)
class AdmissibilityFinding:
    """The analyzer's finding for one item."""

    evidence_id: int
    outcome: Admissibility
    ruling: Ruling
    reason: str


class AdmissibilityAnalyzer:
    """Applies the exclusionary rule over a body of evidence."""

    def __init__(self, engine: ComplianceEngine | None = None) -> None:
        self._engine = engine or ComplianceEngine()

    def analyze(
        self,
        items: list[EvidenceItem],
        custody: dict[int, ChainOfCustody] | None = None,
        responses: dict[int, "ProsecutionResponse"] | None = None,
    ) -> dict[int, AdmissibilityFinding]:
        """Analyze a body of evidence, propagating taint through derivation.

        Args:
            items: All evidence offered; derivation links are resolved
                within this list.
            custody: Optional custody chains keyed by evidence id.
            responses: Optional prosecution responses keyed by evidence
                id (see :mod:`repro.court.doctrines`).

        Returns:
            A finding per evidence id.
        """
        custody = custody or {}
        responses = responses or {}
        findings: dict[int, AdmissibilityFinding] = {}
        # Items must be processed parents-first so taint propagates; sort
        # by id, which increases monotonically with creation.
        for item in sorted(items, key=lambda i: i.evidence_id):
            findings[item.evidence_id] = self._analyze_one(
                item,
                findings,
                custody.get(item.evidence_id),
                responses.get(item.evidence_id),
            )
        return findings

    def _analyze_one(
        self,
        item: EvidenceItem,
        findings: dict[int, AdmissibilityFinding],
        chain: ChainOfCustody | None,
        response: "ProsecutionResponse | None",
    ) -> AdmissibilityFinding:
        ruling = self._engine.evaluate(item.action)

        intrinsic_failure = self._intrinsic_failure(item, ruling, chain)
        tainted_parent = self._tainted_parent(item, findings)

        if intrinsic_failure is None and tainted_parent is None:
            return AdmissibilityFinding(
                evidence_id=item.evidence_id,
                outcome=Admissibility.ADMISSIBLE,
                ruling=ruling,
                reason=(
                    "lawfully acquired with sufficient process; chain "
                    "intact"
                ),
            )

        if response is not None:
            prevails, doctrine_reason = self._weigh_response(
                response, findings
            )
            if prevails:
                return AdmissibilityFinding(
                    evidence_id=item.evidence_id,
                    outcome=Admissibility.ADMISSIBLE,
                    ruling=ruling,
                    reason=f"suppression denied: {doctrine_reason}",
                )

        if tainted_parent is not None:
            return AdmissibilityFinding(
                evidence_id=item.evidence_id,
                outcome=Admissibility.SUPPRESSED_DERIVATIVE,
                ruling=ruling,
                reason=(
                    f"fruit of the poisonous tree: derives from suppressed "
                    f"evidence #{tainted_parent}"
                ),
            )
        return AdmissibilityFinding(
            evidence_id=item.evidence_id,
            outcome=Admissibility.SUPPRESSED,
            ruling=ruling,
            reason=intrinsic_failure,
        )

    @staticmethod
    def _intrinsic_failure(
        item: EvidenceItem,
        ruling: Ruling,
        chain: ChainOfCustody | None,
    ) -> str | None:
        """The item's own defect (ignoring derivation), if any."""
        if not ruling.permits(item.process_held):
            return (
                f"acquisition required "
                f"{ruling.required_process.display_name} but the "
                f"investigator held {item.process_held.display_name}"
            )
        if chain is not None and not chain.intact():
            return "chain of custody broken (content hash mismatch)"
        if not item.verify_integrity():
            return "evidence content no longer matches acquisition hash"
        return None

    @staticmethod
    def _tainted_parent(
        item: EvidenceItem,
        findings: dict[int, AdmissibilityFinding],
    ) -> int | None:
        """The first suppressed ancestor this item derives from, if any."""
        for parent_id in item.derived_from:
            finding = findings.get(parent_id)
            if (
                finding is not None
                and finding.outcome is not Admissibility.ADMISSIBLE
            ):
                return parent_id
        return None

    @staticmethod
    def _weigh_response(
        response: "ProsecutionResponse",
        findings: dict[int, AdmissibilityFinding],
    ) -> tuple[bool, str]:
        from repro.court.doctrines import response_prevails

        independent_admitted = False
        if response.independent_evidence_id is not None:
            independent = findings.get(response.independent_evidence_id)
            independent_admitted = (
                independent is not None
                and independent.outcome is Admissibility.ADMISSIBLE
            )
        return response_prevails(response, independent_admitted)
