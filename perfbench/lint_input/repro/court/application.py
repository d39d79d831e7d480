"""Applications for legal process.

An application bundles the facts an investigator can show, the standard
those facts support, and — for warrants — the particularity the Fourth
Amendment demands ("particularly describing the place to be searched, and
the persons or things to be seized").
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import ProcessKind, Standard


@dataclasses.dataclass(frozen=True)
class Fact:
    """One fact offered in support of an application.

    Attributes:
        description: The fact, in plain English.
        supports: The strongest evidentiary standard this fact can carry
            on its own (e.g. an IP address tied to criminal traffic
            supports probable cause — paper section III.A.1(a); mere
            group membership supports only suspicion — Coreas).
        observed_at: When the fact was observed (staleness analysis).
    """

    description: str
    supports: Standard
    observed_at: float = 0.0


@dataclasses.dataclass(frozen=True)
class ProcessApplication:
    """An application for a subpoena, court order, or warrant.

    Attributes:
        kind: The process requested.
        applicant: Who applies.
        facts: Supporting facts.
        target_place: For warrants: the place to be searched.
        target_items: For warrants: the things to be seized.
        applied_at: Simulation time of the application.
        necessity_statement: For Title III orders: the 2518(1)(c)
            necessity/exhaustion showing — why "normal investigative
            procedures have been tried and have failed or reasonably
            appear to be unlikely to succeed".
    """

    kind: ProcessKind
    applicant: str
    facts: tuple[Fact, ...]
    target_place: str = ""
    target_items: tuple[str, ...] = ()
    applied_at: float = 0.0
    necessity_statement: str = ""

    def showing(self) -> Standard:
        """The strongest standard the offered facts support.

        Standards do not stack: ten mere suspicions are still mere
        suspicion; the application carries the *maximum* of its facts.
        """
        if not self.facts:
            return Standard.NOTHING
        return max(fact.supports for fact in self.facts)

    def is_particular(self) -> bool:
        """Whether the warrant-particularity requirement is met."""
        if self.kind not in (
            ProcessKind.SEARCH_WARRANT,
            ProcessKind.WIRETAP_ORDER,
        ):
            return True
        return bool(self.target_place) and bool(self.target_items)

    def shows_necessity(self) -> bool:
        """Whether the Title III necessity requirement is met.

        Only wiretap orders demand it; every other process trivially
        passes.
        """
        if self.kind is not ProcessKind.WIRETAP_ORDER:
            return True
        return bool(self.necessity_statement.strip())
