"""Exceptions raised by injected faults.

These are *substrate* failures, not legal ones: a tap missing packets or
a drive returning garbage does not violate any statute by itself, but it
does threaten admissibility — a custody log that cannot explain a gap, or
an image whose hash never verified, is challengeable evidence.  Consumers
therefore either retry (bounded, via
:class:`~repro.faults.retry.RetryPolicy`), degrade to confidence-scored
partial results, or record the interruption in the evidence's chain of
custody.  Swallowing a :class:`FaultError` without doing any of those is
exactly what lint rule ``REPRO107`` flags.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.plan import FaultKind


class FaultError(Exception):
    """An injected substrate fault surfaced to a consumer.

    Attributes:
        kind: The fault kind that fired, when known.
        target: The substrate element the fault hit.
        time: Simulation time of the fault.
    """

    def __init__(
        self,
        message: str,
        kind: "FaultKind | None" = None,
        target: str = "",
        time: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.target = target
        self.time = time


class TransientReadError(FaultError):
    """A storage read failed this time; a re-read may succeed."""


class StorageFault(FaultError):
    """Storage failed persistently (imaging could not verify a hash)."""


class CourtFault(FaultError):
    """Process could not be obtained or relied on (denied, expired)."""
