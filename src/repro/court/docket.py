"""Issued process instruments and the court docket.

A granted application becomes an :class:`IssuedProcess` — the thing an
investigator actually holds.  Instruments expire (section III.A.2(b): "a
search warrant may expire and revoke after a specific time period") and
may be revoked; both states invalidate later reliance.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.enums import ProcessKind
from repro.core.schema import NOT_PERSISTED

_instrument_ids = itertools.count(1)
_docket_ids = itertools.count(1)

#: Default validity windows, in simulated seconds.  Warrants are
#: deliberately the shortest-lived; subpoenas the longest.  "No
#: process" is never issued as an instrument, so its window is empty.
DEFAULT_VALIDITY: dict[ProcessKind, float] = {
    ProcessKind.NONE: 0.0,
    ProcessKind.SUBPOENA: 90 * 86400.0,
    ProcessKind.COURT_ORDER: 60 * 86400.0,
    ProcessKind.SEARCH_WARRANT: 14 * 86400.0,
    ProcessKind.WIRETAP_ORDER: 30 * 86400.0,
}


@dataclasses.dataclass
class IssuedProcess:
    """One issued instrument: its kind, scope, and validity window."""

    kind: ProcessKind
    issued_to: str
    issued_at: float
    expires_at: float
    scope: str = ""
    revoked: bool = False
    #: A per-process counter, so never persisted: reloads get a fresh id.
    instrument_id: int = dataclasses.field(
        default_factory=lambda: next(_instrument_ids), metadata=NOT_PERSISTED
    )

    def valid_at(self, time: float) -> bool:
        """Whether the instrument may be relied on at a given time."""
        return (
            not self.revoked
            and self.issued_at <= time <= self.expires_at
        )

    def is_valid(self, time: float) -> bool:
        """Alias of :meth:`valid_at`, the name consumers read best."""
        return self.valid_at(time)

    def time_remaining(self, time: float) -> float:
        """Seconds of validity left at ``time`` (0 if expired/revoked)."""
        if not self.valid_at(time):
            return 0.0
        return self.expires_at - time

    def revoke(self) -> None:
        """Revoke the instrument (e.g. consent withdrawn, order quashed)."""
        self.revoked = True


class Docket:
    """The court's record of applications and issued instruments.

    Every docket carries a process-unique ``docket_id`` so telemetry can
    correlate an acquisition span back to the docket its authorizing
    instrument was filed on (the audit-trail query the paper's
    accountability argument asks for).
    """

    def __init__(self) -> None:
        self.docket_id = next(_docket_ids)
        self._instruments: list[IssuedProcess] = []
        self.applications_received = 0
        self.applications_denied = 0

    def record_application(self, granted: bool) -> None:
        """Count an application and its outcome."""
        self.applications_received += 1
        if not granted:
            self.applications_denied += 1

    def file(self, instrument: IssuedProcess) -> None:
        """File an issued instrument on the docket."""
        self._instruments.append(instrument)

    @property
    def instruments(self) -> tuple[IssuedProcess, ...]:
        """All instruments ever issued, oldest first."""
        return tuple(self._instruments)

    def active_for(
        self, holder: str, time: float
    ) -> list[IssuedProcess]:
        """Instruments a holder can rely on right now."""
        return [
            instrument
            for instrument in self._instruments
            if instrument.issued_to == holder and instrument.valid_at(time)
        ]

    def strongest_process(self, holder: str, time: float) -> ProcessKind:
        """The strongest process a holder currently has."""
        active = self.active_for(holder, time)
        if not active:
            return ProcessKind.NONE
        return max(instrument.kind for instrument in active)
