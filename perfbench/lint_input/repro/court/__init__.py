"""The court substrate: applications, the magistrate, and suppression.

Implements the paper's process machinery: the standards ladder of section
II.A (suspicion → articulable facts → probable cause), warrant
particularity, instrument expiry, and the suppression hearing that closes
the loop on illegally gathered evidence.
"""

from repro.court.application import Fact, ProcessApplication
from repro.court.docket import (
    DEFAULT_VALIDITY,
    Docket,
    IssuedProcess,
)
from repro.court.doctrines import (
    INEVITABILITY_THRESHOLD,
    ProsecutionResponse,
    ResponseKind,
    response_prevails,
)
from repro.court.magistrate import Decision, Magistrate
from repro.court.suppression import SuppressionHearing, SuppressionOutcome

__all__ = [
    "DEFAULT_VALIDITY",
    "Decision",
    "Docket",
    "Fact",
    "INEVITABILITY_THRESHOLD",
    "IssuedProcess",
    "Magistrate",
    "ProcessApplication",
    "ProsecutionResponse",
    "ResponseKind",
    "SuppressionHearing",
    "SuppressionOutcome",
    "response_prevails",
]
