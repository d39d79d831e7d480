"""Evidence items with provenance.

Every acquisition in the framework produces an :class:`EvidenceItem`
recording *how* it was acquired: the investigative action performed, the
process the investigator held at the time, and the items it derives from.
The suppression hearing later reads exactly these fields — the paper's
point that "incorrect use of new techniques may result in suppression of
the gathered evidence in court" (section I).
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.action import InvestigativeAction
from repro.core.enums import ProcessKind
from repro.storage.hashing import sha256_hex

_evidence_ids = itertools.count(1)


@dataclasses.dataclass
class EvidenceItem:
    """One piece of evidence and its acquisition provenance.

    Attributes:
        description: What the evidence is.
        content: The evidence data itself (text form).
        acquired_by: Name of the acquiring investigator/agency.
        acquired_at: Simulation (or wall) time of acquisition.
        action: The investigative action that produced it.
        process_held: The strongest process the investigator held when
            acquiring it.
        derived_from: Evidence ids this item was derived from (for
            fruit-of-the-poisonous-tree analysis).
        evidence_id: Unique id.
        content_hash: SHA-256 of the content at acquisition time.
    """

    description: str
    content: str
    acquired_by: str
    acquired_at: float
    action: InvestigativeAction
    process_held: ProcessKind = ProcessKind.NONE
    derived_from: tuple[int, ...] = ()
    evidence_id: int = dataclasses.field(
        default_factory=lambda: next(_evidence_ids)
    )
    content_hash: str = ""

    def __post_init__(self) -> None:
        if not self.content_hash:
            self.content_hash = sha256_hex(self.content)

    def verify_integrity(self) -> bool:
        """Whether the content still matches its acquisition-time hash."""
        return sha256_hex(self.content) == self.content_hash


def derive(
    parent: EvidenceItem,
    description: str,
    content: str,
    action: InvestigativeAction,
    process_held: ProcessKind | None = None,
    acquired_at: float | None = None,
) -> EvidenceItem:
    """Create evidence derived from existing evidence.

    Derived items inherit the parent's acquirer and, by default, the
    parent's process; the derivation link is what lets the suppression
    hearing taint fruits of an unlawful acquisition.
    """
    return EvidenceItem(
        description=description,
        content=content,
        acquired_by=parent.acquired_by,
        acquired_at=parent.acquired_at if acquired_at is None else acquired_at,
        action=action,
        process_held=(
            parent.process_held if process_held is None else process_held
        ),
        derived_from=(parent.evidence_id,),
    )
