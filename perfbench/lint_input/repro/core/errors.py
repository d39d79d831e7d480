"""Exceptions raised when an action would violate the legal framework.

Substrates (the ISP disclosure API, the investigator pipeline) raise these
when asked to do something the compliance engine says requires process the
caller does not hold.  Catching :class:`LegalViolation` and proceeding
anyway is exactly what gets evidence suppressed in
:mod:`repro.court.suppression`.
"""

from __future__ import annotations

from repro.core.enums import ProcessKind


class LegalViolation(Exception):
    """An action that the legal framework forbids as attempted."""


class InsufficientProcess(LegalViolation):
    """The actor holds weaker process than the action requires.

    Attributes:
        required: The process the action requires.
        held: The process the actor actually holds.
    """

    def __init__(
        self, required: ProcessKind, held: ProcessKind, what: str
    ) -> None:
        self.required = required
        self.held = held
        self.what = what
        super().__init__(
            f"{what}: requires {required.display_name}, "
            f"but actor holds {held.display_name}"
        )


class ConsentViolation(LegalViolation):
    """A search exceeded or continued past the scope of a consent."""


class StalenessError(LegalViolation):
    """Process relied on after it expired or was revoked."""
