"""The magistrate: grants or denies applications for process.

Implements the paper's section II.A ladder: a subpoena issues on mere
suspicion, a court order on specific and articulable facts, a search
warrant on probable cause (with particularity), and a Title III order on
probable cause plus necessity.  Staleness is handled the way the courts
do (section III.A.1(c)): old facts usually still support probable cause,
but the magistrate discounts facts past a staleness horizon when they are
the *only* support.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.enums import REQUIRED_SHOWING, ProcessKind, Standard
from repro.court.application import ProcessApplication
from repro.court.docket import DEFAULT_VALIDITY, Docket, IssuedProcess
from repro.faults.plan import FaultKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector


@dataclasses.dataclass(frozen=True)
class Decision:
    """The magistrate's decision on one application.

    Attributes:
        granted: Whether an instrument issued.
        reason: The magistrate's stated ground.
        instrument: The issued instrument, when granted.
        delay: Seconds the court sat on the application before deciding
            (0 for a prompt ruling); the applicant cannot rely on the
            instrument before ``applied_at + delay``.
    """

    granted: bool
    reason: str
    instrument: IssuedProcess | None = None
    delay: float = 0.0


class Magistrate:
    """A deterministic magistrate applying the standards ladder.

    Args:
        docket: The docket to file issued instruments on.
        staleness_horizon: Age (seconds) past which a fact is treated as
            stale.  ``None`` disables staleness discounting entirely,
            matching the line of cases holding information "sufficient to
            establish the probable cause no matter how old it is".
        injector: Optional fault injector; the court may then deny
            otherwise sufficient applications (``COURT_DENIAL``), sit on
            them (``COURT_LATENCY``), or issue instruments with a
            drastically shortened validity window
            (``INSTRUMENT_EXPIRY``) — the hostile-court conditions a
            resilient pipeline must survive.
    """

    def __init__(
        self,
        docket: Docket | None = None,
        staleness_horizon: float | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.docket = docket or Docket()
        self.staleness_horizon = staleness_horizon
        self.injector = injector

    def review(self, application: ProcessApplication) -> Decision:
        """Review an application and issue an instrument if it qualifies."""
        required = REQUIRED_SHOWING[application.kind]
        showing = self._effective_showing(application)
        target = f"application:{application.applicant}"
        delay = 0.0
        if self.injector is not None and self.injector.fires(
            FaultKind.COURT_LATENCY,
            target=target,
            time=application.applied_at,
        ):
            delay = self.injector.magnitude(
                FaultKind.COURT_LATENCY, target=target
            )

        if self.injector is not None and self.injector.fires(
            FaultKind.COURT_DENIAL,
            target=target,
            time=application.applied_at,
        ):
            self.docket.record_application(False)
            return Decision(
                granted=False,
                reason=(
                    "application denied by the issuing court (injected "
                    "court fault; the showing was not reached)"
                ),
                delay=delay,
            )

        if application.kind is ProcessKind.NONE:
            decision = Decision(
                granted=False,
                reason="no instrument exists for 'no process'",
                delay=delay,
            )
            self.docket.record_application(False)
            return decision

        if not showing.satisfies(required):
            decision = Decision(
                granted=False,
                reason=(
                    f"showing of {showing.name.lower().replace('_', ' ')} "
                    f"does not meet the required "
                    f"{required.name.lower().replace('_', ' ')}"
                ),
                delay=delay,
            )
            self.docket.record_application(False)
            return decision

        if not application.is_particular():
            decision = Decision(
                granted=False,
                reason=(
                    "warrant application lacks particularity: it must "
                    "describe the place to be searched and the things to "
                    "be seized"
                ),
                delay=delay,
            )
            self.docket.record_application(False)
            return decision

        if not application.shows_necessity():
            decision = Decision(
                granted=False,
                reason=(
                    "Title III application lacks the 2518(1)(c) necessity "
                    "showing: it must explain why normal investigative "
                    "procedures have been tried and failed or appear "
                    "unlikely to succeed"
                ),
                delay=delay,
            )
            self.docket.record_application(False)
            return decision

        issued_at = application.applied_at + delay
        validity = DEFAULT_VALIDITY[application.kind]
        if self.injector is not None and self.injector.fires(
            FaultKind.INSTRUMENT_EXPIRY, target=target, time=issued_at
        ):
            validity = min(
                validity,
                self.injector.magnitude(
                    FaultKind.INSTRUMENT_EXPIRY, target=target
                ),
            )
        instrument = IssuedProcess(
            kind=application.kind,
            issued_to=application.applicant,
            issued_at=issued_at,
            expires_at=issued_at + validity,
            scope=application.target_place or "as described in application",
        )
        self.docket.record_application(True)
        self.docket.file(instrument)
        return Decision(
            granted=True,
            reason=f"showing satisfies {required.name.lower().replace('_', ' ')}",
            instrument=instrument,
            delay=delay,
        )

    def _effective_showing(self, application: ProcessApplication) -> Standard:
        """The application's showing after staleness discounting."""
        if self.staleness_horizon is None:
            return application.showing()
        fresh = [
            fact
            for fact in application.facts
            if application.applied_at - fact.observed_at
            <= self.staleness_horizon
        ]
        if not fresh:
            return Standard.NOTHING
        return max(fact.supports for fact in fresh)
