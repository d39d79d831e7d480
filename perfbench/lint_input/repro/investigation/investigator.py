"""The investigator: an actor that must hold process before acting.

The investigator is where the framework becomes *enforcing* rather than
advisory: :meth:`Investigator.act` asks the compliance engine what the
acquisition requires and refuses (raises
:class:`~repro.core.errors.InsufficientProcess`) if the investigator's
currently valid instruments fall short.  Passing ``comply=False`` models
the officer who proceeds anyway — the acquisitions succeed, but the
resulting evidence carries its provenance into the suppression hearing.
"""

from __future__ import annotations

from repro import obs
from repro.core.action import InvestigativeAction
from repro.core.engine import ComplianceEngine
from repro.core.enums import ProcessKind
from repro.core.errors import InsufficientProcess, StalenessError
from repro.court.application import ProcessApplication
from repro.court.docket import IssuedProcess
from repro.court.magistrate import Decision, Magistrate
from repro.evidence.items import EvidenceItem
from repro.faults.retry import RetryPolicy
from repro.investigation.case import Case


class Investigator:
    """A law-enforcement investigator bound by the compliance engine."""

    def __init__(
        self,
        name: str,
        magistrate: Magistrate | None = None,
        engine: ComplianceEngine | None = None,
    ) -> None:
        self.name = name
        self.magistrate = magistrate or Magistrate()
        self.engine = engine or ComplianceEngine()
        self.instruments: list[IssuedProcess] = []
        self.evidence: list[EvidenceItem] = []
        self.violations: list[str] = []

    # -- process management ------------------------------------------------------

    def current_process(self, time: float) -> ProcessKind:
        """The strongest instrument valid right now."""
        valid = [i.kind for i in self.instruments if i.valid_at(time)]
        return max(valid, default=ProcessKind.NONE)

    def apply_for(
        self,
        kind: ProcessKind,
        case: Case,
        time: float,
        target_place: str = "",
        target_items: tuple[str, ...] = (),
        necessity_statement: str = "",
    ) -> Decision:
        """Apply to the magistrate with the case's current facts."""
        application = case.to_application(
            kind=kind,
            applicant=self.name,
            applied_at=time,
            target_place=target_place,
            target_items=target_items,
            necessity_statement=necessity_statement,
        )
        decision = self.magistrate.review(application)
        if decision.granted and decision.instrument is not None:
            self.instruments.append(decision.instrument)
        return decision

    def apply_with(self, application: ProcessApplication) -> Decision:
        """Apply with a pre-built application (advanced callers)."""
        decision = self.magistrate.review(application)
        if decision.granted and decision.instrument is not None:
            self.instruments.append(decision.instrument)
        return decision

    def apply_with_retry(
        self,
        kind: ProcessKind,
        case: Case,
        time: float,
        policy: RetryPolicy,
        target_place: str = "",
        target_items: tuple[str, ...] = (),
        necessity_statement: str = "",
    ) -> tuple[Decision, int, float]:
        """Apply, re-applying after denials under a retry policy.

        A denial (a hostile court, an injected fault) is not the end of
        an investigation: the officer re-applies after a backoff, up to
        the policy's attempt bound.  Each attempt is made at a later
        simulated time, so staleness horizons and instrument validity
        windows interact with the backoff realistically.

        Returns:
            ``(final decision, attempts used, time of the last attempt)``.
        """
        def attempt_once(index: int, at: float) -> Decision:
            with obs.span(
                "retry.attempt", sim_time=at, attempt=index, kind=kind.name
            ) as sp:
                decided = self.apply_for(
                    kind,
                    case,
                    at,
                    target_place=target_place,
                    target_items=target_items,
                    necessity_statement=necessity_statement,
                )
                sp.set(granted=decided.granted)
            return decided

        now = time
        decision = attempt_once(0, now)
        attempt = 0
        while not decision.granted and attempt < policy.max_attempts - 1:
            now += policy.delay(attempt)
            attempt += 1
            decision = attempt_once(attempt, now)
        return decision, attempt + 1, now

    # -- acting -------------------------------------------------------------------

    def act(
        self,
        action: InvestigativeAction,
        time: float,
        content: str,
        description: str | None = None,
        comply: bool = True,
        derived_from: tuple[int, ...] = (),
    ) -> EvidenceItem:
        """Perform an acquisition and record the resulting evidence.

        Args:
            action: The acquisition to perform.
            time: Current simulation time.
            content: The data the acquisition yields.
            description: Evidence description (defaults to the action's).
            comply: If ``True``, refuse to act without sufficient process;
                if ``False``, act anyway and let the court sort it out.
            derived_from: Parent evidence ids, for derivation links.

        Returns:
            The evidence item produced.

        Raises:
            InsufficientProcess: In comply mode, when held process is
                weaker than the action requires.
        """
        ruling = self.engine.evaluate(action)
        held = self.current_process(time)
        if not held.satisfies(ruling.required_process):
            if comply:
                raise InsufficientProcess(
                    required=ruling.required_process,
                    held=held,
                    what=action.description,
                )
            self.violations.append(
                f"t={time}: acted without required "
                f"{ruling.required_process.display_name}: "
                f"{action.description}"
            )
        item = EvidenceItem(
            description=description or action.description,
            content=content,
            acquired_by=self.name,
            acquired_at=time,
            action=action,
            process_held=held,
            derived_from=derived_from,
        )
        self.evidence.append(item)
        return item

    def rely_on(self, instrument: IssuedProcess, time: float) -> None:
        """Assert reliance on an instrument; raises if it is no longer valid.

        Raises:
            StalenessError: If the instrument expired or was revoked.
        """
        if not instrument.valid_at(time):
            raise StalenessError(
                f"instrument #{instrument.instrument_id} "
                f"({instrument.kind.display_name}) is expired or revoked "
                f"at t={time}"
            )
