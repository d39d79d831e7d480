"""Researcher-facing feasibility assessment (the paper's Section IV).

The paper's recommendation engine: given the set of investigative actions a
proposed technique must perform, classify the technique as *workable
without* legal process (section IV.A — the anonymous-P2P timing attack),
*workable with* process (section IV.B — the DSSS watermark), or workable as
a *private search*, and say what a researcher should do about it.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.core.action import InvestigativeAction
from repro.core.engine import ComplianceEngine
from repro.core.enums import Actor, ProcessKind
from repro.core.ruling import Ruling


class Feasibility(enum.Enum):
    """The paper's Section IV classification of a technique."""

    #: Every action the technique needs is lawful with no process — it can
    #: be used ahead of any warrant/court order/subpoena (section IV.A).
    WORKABLE_WITHOUT_PROCESS = "workable without process"
    #: At least one action needs process, but the showing required is
    #: below a full wiretap order (section IV.B, situation one).
    WORKABLE_WITH_PROCESS = "workable with process"
    #: The technique needs a Title III order — the heaviest process; the
    #: paper warns law enforcement "may not be willing to adopt" such
    #: tools given overhead and budget.
    WORKABLE_WITH_WIRETAP_ORDER = "workable only with a wiretap order"


@dataclasses.dataclass(frozen=True)
class RedesignSuggestion:
    """A concrete redesign that lowers a technique's process burden.

    The paper's watermark lesson generalized: "they do not need to
    collect the entire packet, so they do not need a wiretap warrant."
    When a technique's content collection can be downgraded to
    non-content (timing, sizes, addressing), the required process drops
    from a Title III order toward a pen/trap court order.

    Attributes:
        original: Assessment of the technique as proposed.
        redesigned: Assessment of the non-content variant.
        redesigned_actions: The downgraded action list.
        note: What the redesign changed.
    """

    original: "TechniqueAssessment"
    redesigned: "TechniqueAssessment"
    redesigned_actions: tuple[InvestigativeAction, ...]
    note: str

    @property
    def process_saved(self) -> int:
        """How many rungs of the process ladder the redesign saves."""
        return int(self.original.required_process) - int(
            self.redesigned.required_process
        )


@dataclasses.dataclass(frozen=True)
class TechniqueAssessment:
    """The advisor's verdict on one proposed technique.

    Attributes:
        name: The technique's name.
        feasibility: The Section IV classification.
        required_process: The strongest process any constituent action
            needs.
        rulings: Per-action rulings, in the order actions were given.
        private_search_viable: Whether the same actions performed by a
            private party (e.g. campus IT administrators, section IV.B
            situation two) would be lawful without process.
        recommendation: The advisor's plain-English advice.
    """

    name: str
    feasibility: Feasibility
    required_process: ProcessKind
    rulings: tuple[Ruling, ...]
    private_search_viable: bool
    recommendation: str


class ResearchAdvisor:
    """Assesses proposed forensic techniques against the legal framework."""

    def __init__(self, engine: ComplianceEngine | None = None) -> None:
        self._engine = engine or ComplianceEngine()

    def assess(
        self, name: str, actions: list[InvestigativeAction]
    ) -> TechniqueAssessment:
        """Assess a technique described by its constituent actions.

        Args:
            name: Human-readable technique name.
            actions: Every acquisition the technique must perform, as the
                government would perform it.

        Returns:
            A :class:`TechniqueAssessment` with per-action rulings, the
            overall feasibility class, and a recommendation.
        """
        if not actions:
            raise ValueError("a technique must perform at least one action")

        rulings = tuple(self._engine.evaluate(a) for a in actions)
        required = max(r.required_process for r in rulings)
        feasibility = self._classify(required)
        private_viable = self._private_search_viable(actions)
        recommendation = self._recommend(feasibility, required, private_viable)

        return TechniqueAssessment(
            name=name,
            feasibility=feasibility,
            required_process=required,
            rulings=rulings,
            private_search_viable=private_viable,
            recommendation=recommendation,
        )

    def suggest_redesign(
        self, name: str, actions: list[InvestigativeAction]
    ) -> RedesignSuggestion | None:
        """Propose a non-content redesign if it lowers the process burden.

        Every real-time *content* acquisition is downgraded to its
        non-content shadow (collect timing/sizes/addressing instead of
        payloads); if the downgraded technique needs strictly less
        process, the suggestion is returned.

        Returns:
            The suggestion, or ``None`` when no downgrade is possible or
            the downgrade saves nothing.
        """
        from repro.core.enums import DataKind, Timing

        downgraded: list[InvestigativeAction] = []
        changed = False
        for action in actions:
            if (
                action.data_kind is DataKind.CONTENT
                and action.timing is Timing.REAL_TIME
            ):
                downgraded.append(
                    dataclasses.replace(
                        action,
                        data_kind=DataKind.NON_CONTENT,
                        description=(
                            f"{action.description} (rates/addressing "
                            f"only, no contents)"
                        ),
                    )
                )
                changed = True
            else:
                downgraded.append(action)
        if not changed:
            return None

        original = self.assess(name, actions)
        redesigned = self.assess(f"{name} (non-content redesign)", downgraded)
        if redesigned.required_process >= original.required_process:
            return None
        return RedesignSuggestion(
            original=original,
            redesigned=redesigned,
            redesigned_actions=tuple(downgraded),
            note=(
                "collect timing, sizes, and addressing instead of "
                "contents; the acquisition moves from Title III to the "
                "Pen/Trap statute"
            ),
        )

    @staticmethod
    def _classify(required: ProcessKind) -> Feasibility:
        if required is ProcessKind.NONE:
            return Feasibility.WORKABLE_WITHOUT_PROCESS
        if required is ProcessKind.WIRETAP_ORDER:
            return Feasibility.WORKABLE_WITH_WIRETAP_ORDER
        return Feasibility.WORKABLE_WITH_PROCESS

    def _private_search_viable(
        self, actions: list[InvestigativeAction]
    ) -> bool:
        """Re-run the actions as a private network operator would perform them.

        Section IV.B situation two: two campus administrators run the
        watermark on their own gateways and report suspicions to law
        enforcement — a private search with, at most, provider-exception
        cover.  We model this by re-evaluating each action with a private
        actor monitoring its own network.
        """
        for action in actions:
            as_private = dataclasses.replace(
                action,
                actor=Actor.PRIVATE,
                doctrine=dataclasses.replace(
                    action.doctrine, monitoring_own_network=True
                ),
            )
            if self._engine.evaluate(as_private).needs_process:
                return False
        return True

    @staticmethod
    def _recommend(
        feasibility: Feasibility,
        required: ProcessKind,
        private_viable: bool,
    ) -> str:
        if feasibility is Feasibility.WORKABLE_WITHOUT_PROCESS:
            return (
                "Directly usable in criminal investigations ahead of any "
                "warrant/court order/subpoena; ideal for traceback-related "
                "network forensics (paper section IV.A)."
            )
        parts = [
            f"Law enforcement must first obtain a "
            f"{required.display_name}; design the technique so the "
            f"evidence it gathers can support that application."
        ]
        if private_viable:
            parts.append(
                "Alternatively workable as a private search: network "
                "operators may run it on their own systems and report "
                "findings to law enforcement (paper section IV.B, "
                "situation two)."
            )
        if feasibility is Feasibility.WORKABLE_WITH_WIRETAP_ORDER:
            parts.append(
                "A Title III order is the hardest process to obtain; "
                "consider redesigning to collect only non-content data so "
                "a court order suffices."
            )
        return " ".join(parts)
