"""Cases: the facts an investigation accumulates.

A case collects :class:`~repro.court.application.Fact` records as the
investigation progresses; its current showing is the *maximum* standard
any fact supports (facts do not stack — ten suspicions are still
suspicion).  The paper's probable-cause scenarios map to fact helpers:
an IP address tied to criminal traffic supports probable cause
(III.A.1(a)), account membership alone supports only suspicion unless
intent is shown (III.A.1(b), Gourde vs Coreas).
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import ProcessKind, Standard
from repro.court.application import Fact, ProcessApplication


@dataclasses.dataclass
class Case:
    """One criminal investigation's accumulated state."""

    name: str
    description: str = ""
    facts: list[Fact] = dataclasses.field(default_factory=list)
    suspects: list[str] = dataclasses.field(default_factory=list)

    def add_fact(self, fact: Fact) -> None:
        """Add a fact to the case."""
        self.facts.append(fact)

    def add_suspect(self, name: str) -> None:
        """Name a suspect (idempotent)."""
        if name not in self.suspects:
            self.suspects.append(name)

    def showing(self) -> Standard:
        """The strongest standard the case's facts currently support."""
        if not self.facts:
            return Standard.NOTHING
        return max(fact.supports for fact in self.facts)

    def can_apply_for(self, kind: ProcessKind) -> bool:
        """Whether the case's showing could support this process."""
        from repro.core.enums import REQUIRED_SHOWING

        return self.showing().satisfies(REQUIRED_SHOWING[kind])

    def to_application(
        self,
        kind: ProcessKind,
        applicant: str,
        applied_at: float,
        target_place: str = "",
        target_items: tuple[str, ...] = (),
        necessity_statement: str = "",
    ) -> ProcessApplication:
        """Package the case's facts into a process application."""
        return ProcessApplication(
            kind=kind,
            applicant=applicant,
            facts=tuple(self.facts),
            target_place=target_place,
            target_items=target_items,
            applied_at=applied_at,
            necessity_statement=necessity_statement,
        )


# -- fact helpers for the paper's probable-cause scenarios ---------------------


def ip_address_fact(
    ip: str, crime: str, observed_at: float = 0.0
) -> Fact:
    """Probable cause via an IP address (paper section III.A.1(a)).

    An IP address observed in criminal traffic, traced to a subscriber,
    supports probable cause for a warrant on the subscriber's premises —
    "no matter the suspect uses an unsecure wireless connection".
    """
    return Fact(
        description=f"IP address {ip} observed in {crime} traffic",
        supports=Standard.PROBABLE_CAUSE,
        observed_at=observed_at,
    )


def membership_fact(
    account: str, service: str, observed_at: float = 0.0
) -> Fact:
    """Membership alone (Coreas): supports only suspicion."""
    return Fact(
        description=f"account {account!r} is a member of {service}",
        supports=Standard.MERE_SUSPICION,
        observed_at=observed_at,
    )


def membership_with_intent_fact(
    account: str, service: str, intent_evidence: str, observed_at: float = 0.0
) -> Fact:
    """Membership plus intent (Gourde): supports probable cause.

    The paper: "If law enforcement has a technique to identify the
    suspect's intent along with the membership, this is a probable cause."
    """
    return Fact(
        description=(
            f"account {account!r} is a member of {service} and "
            f"{intent_evidence}"
        ),
        supports=Standard.PROBABLE_CAUSE,
        observed_at=observed_at,
    )


def articulable_facts(
    description: str, observed_at: float = 0.0
) -> Fact:
    """Specific and articulable facts — the 2703(d) court-order showing."""
    return Fact(
        description=description,
        supports=Standard.SPECIFIC_AND_ARTICULABLE_FACTS,
        observed_at=observed_at,
    )


def suspicion_fact(description: str, observed_at: float = 0.0) -> Fact:
    """A bare suspicion — enough for a subpoena only."""
    return Fact(
        description=description,
        supports=Standard.MERE_SUSPICION,
        observed_at=observed_at,
    )
