"""Pen/Trap statute analysis: real-time collection of non-content data.

A pen register records outgoing addressing information and a trap-and-trace
device records incoming addressing information (18 U.S.C. 3127(3)-(4)).
Installing either requires a court order unless a statutory exception
applies (provider operations, user consent, the 3125 emergencies), per
paper sections II.B.2(c) and III.A.3.
"""

from __future__ import annotations

from repro.core.action import InvestigativeAction
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    ExceptionKind,
    LegalSource,
    Place,
    ProcessKind,
)
from repro.core.ruling import ReasoningStep, Requirement


def applies(action: InvestigativeAction) -> bool:
    """Whether the Pen/Trap statute governs this action.

    Only real-time acquisition of addressing / other non-content
    information counts; content is Title III's domain and stored records
    are the SCA's.
    """
    return action.real_time() and action.data_kind is DataKind.NON_CONTENT


def evaluate(action: InvestigativeAction) -> Requirement | None:
    """Apply the Pen/Trap statute to one action.

    Returns:
        A court-order :class:`Requirement`, or ``None`` when the statute
        does not apply or a statutory exception authorizes the collection.
    """
    if not applies(action):
        return None

    if statutory_exception(action) is not None:
        return None

    return Requirement(
        source=LegalSource.PEN_TRAP,
        process=ProcessKind.COURT_ORDER,
        steps=(
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "Real-time collection of dialing/routing/addressing "
                    "information (including packet sizes and IP headers) "
                    "requires a pen/trap court order."
                ),
                authorities=("pen_trap", "forrester"),
            ),
        ),
    )


def statutory_exception(
    action: InvestigativeAction,
) -> tuple[ExceptionKind, ReasoningStep] | None:
    """The Pen/Trap exception covering this action, if any."""
    ctx = action.context
    doctrine = action.doctrine

    if action.actor is Actor.PROVIDER or doctrine.monitoring_own_network:
        return (
            ExceptionKind.PROVIDER_SELF_PROTECTION,
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "Providers may record addressing information relating "
                    "to the operation and protection of their own service "
                    "without an order (3121(b))."
                ),
                authorities=("pen_trap_provider_exception",),
            ),
        )

    if doctrine.emergency_pen_trap:
        return (
            ExceptionKind.EMERGENCY_PEN_TRAP,
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "A statutory emergency (danger to life, organized "
                    "crime, national security, or an ongoing attack on a "
                    "protected computer) authorizes installation before an "
                    "order (3125)."
                ),
                authorities=("emergency_pen_trap",),
            ),
        )

    if doctrine.victim_invited_monitoring and action.consent.covers_target_data:
        return (
            ExceptionKind.COMPUTER_TRESPASSER,
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "The service user under attack consented to the "
                    "recording on their own system (3121(b)(3))."
                ),
                authorities=("pen_trap_provider_exception", "villanueva"),
            ),
        )

    if action.consent.effective() and action.consent.scope in (
        ConsentScope.NETWORK_OWNER,
        ConsentScope.TARGET,
        ConsentScope.ONE_PARTY_TO_COMMUNICATION,
    ):
        return (
            ExceptionKind.PARTY_CONSENT,
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "The user of the service whose addressing information "
                    "is recorded consented (3121(b)(3))."
                ),
                authorities=("pen_trap_provider_exception",),
            ),
        )

    if ctx.place is Place.WIRELESS_BROADCAST:
        return (
            ExceptionKind.NO_REP,
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "Headers radiated in the clear over the air are "
                    "treated like the address on an envelope, collectable "
                    "without an order (authors' judgment; cf. WarDriving, "
                    "Table 1 rows 3 and 5)."
                ),
                authorities=("paper_judgment",),
            ),
        )

    if ctx.place is Place.PUBLIC or ctx.knowingly_exposed or ctx.shared_with_others:
        return (
            ExceptionKind.ACCESSIBLE_TO_PUBLIC,
            ReasoningStep(
                source=LegalSource.PEN_TRAP,
                text=(
                    "Addressing information the user broadcasts publicly "
                    "(open boards, P2P query floods) is readily accessible "
                    "to the public and outside the statute's purpose."
                ),
                authorities=("public_access_exception",),
            ),
        )

    return None
