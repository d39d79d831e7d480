"""The Katz reasonable-expectation-of-privacy (REP) analyzer.

Implements the two-prong test of Katz v. United States as the paper frames
it (section II.C): a person deserves reasonable privacy if (1) they actually
expect privacy and (2) society is prepared to recognize that expectation as
reasonable.  The analyzer consumes an :class:`InvestigativeAction` and
produces a :class:`PrivacyFinding` with a full reasoning trace.
"""

from __future__ import annotations

from repro.core.action import InvestigativeAction
from repro.core.enums import DataKind, LegalSource, Place
from repro.core.ruling import PrivacyFinding, ReasoningStep


def analyze_privacy(action: InvestigativeAction) -> PrivacyFinding:
    """Run the Katz test for the target of an investigative action.

    Args:
        action: The acquisition whose target's privacy is being assessed.

    Returns:
        A :class:`PrivacyFinding` with both prongs and the reasoning steps
        that determined them.
    """
    subjective, subjective_steps = _subjective_prong(action)
    objective, objective_steps = _objective_prong(action)
    return PrivacyFinding(
        subjective_expectation=subjective,
        objectively_reasonable=objective,
        steps=tuple(subjective_steps + objective_steps),
    )


def _subjective_prong(
    action: InvestigativeAction,
) -> tuple[bool, list[ReasoningStep]]:
    """Katz prong one: did the person actually expect privacy?"""
    ctx = action.context
    steps: list[ReasoningStep] = []

    if ctx.is_public_exposure():
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "Information knowingly exposed, shared, abandoned, or "
                    "placed in public evidences no actual expectation of "
                    "privacy."
                ),
                authorities=("gorshkov", "king_shared_folder", "stults_p2p"),
            )
        )
        return False, steps

    if ctx.encrypted:
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "Encrypting the channel manifests an actual, subjective "
                    "expectation of privacy (the shut phone-booth door)."
                ),
                authorities=("katz",),
            )
        )
        return True, steps

    steps.append(
        ReasoningStep(
            source=LegalSource.DOCTRINE,
            text=(
                "Data kept in a non-public place is treated like a closed "
                "container; an actual expectation of privacy is presumed."
            ),
            authorities=("katz", "doj_manual"),
        )
    )
    return True, steps


def _objective_prong(
    action: InvestigativeAction,
) -> tuple[bool, list[ReasoningStep]]:
    """Katz prong two: is the expectation one society accepts as reasonable?"""
    ctx = action.context
    steps: list[ReasoningStep] = []

    if ctx.is_public_exposure():
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "Society recognizes no reasonable privacy in information "
                    "exposed to the public or voluntarily shared with others."
                ),
                authorities=("gorshkov", "stults_p2p"),
            )
        )
        return False, steps

    if ctx.policy_eliminates_rep:
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "An applicable network policy (banner / terms of "
                    "service) eliminates users' expectation of privacy on "
                    "this network."
                ),
                authorities=("doj_manual",),
            )
        )
        return False, steps

    if ctx.delivered_to_recipient:
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "The sender's expectation of privacy in a communication "
                    "terminates upon delivery to the recipient."
                ),
                authorities=("king_delivery",),
            )
        )
        return False, steps

    if (
        action.data_kind
        in (
            DataKind.NON_CONTENT,
            DataKind.SUBSCRIBER_INFO,
            DataKind.TRANSACTIONAL_RECORD,
        )
        and ctx.place
        in (Place.THIRD_PARTY_PROVIDER, Place.TRANSMISSION_PATH)
    ):
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "Addressing and subscriber information voluntarily "
                    "conveyed to a provider carries no constitutional "
                    "privacy expectation (third-party doctrine); statutory "
                    "protection may still apply."
                ),
                authorities=("smith_v_maryland", "forrester"),
            )
        )
        return False, steps

    if ctx.place is Place.WIRELESS_BROADCAST:
        return _wireless_objective(action, steps)

    if ctx.home_interior and not ctx.technology_in_general_public_use:
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "Sense-enhancing technology not in general public use "
                    "that reveals details of the home interior invades a "
                    "reasonable expectation of privacy."
                ),
                authorities=("kyllo",),
            )
        )
        return True, steps

    steps.append(
        ReasoningStep(
            source=LegalSource.DOCTRINE,
            text=(
                "Electronic storage and private communications are "
                "analogous to closed containers; society recognizes the "
                "expectation of privacy in them as reasonable."
            ),
            authorities=("katz", "doj_manual"),
        )
    )
    return True, steps


def _wireless_objective(
    action: InvestigativeAction, steps: list[ReasoningStep]
) -> tuple[bool, list[ReasoningStep]]:
    """Objective prong for traffic broadcast over the air (Table 1 rows 3-6).

    The paper's authors judge (rows marked ``(*)``) that addressing headers
    radiated beyond the home are analogous to the address on an envelope —
    no reasonable expectation — while payload contents retain a reasonable
    expectation whether or not the link is encrypted (the Google Street
    View controversy).
    """
    if action.data_kind is DataKind.CONTENT:
        steps.append(
            ReasoningStep(
                source=LegalSource.DOCTRINE,
                text=(
                    "Payload contents retain a reasonable expectation of "
                    "privacy even when radiated over an open wireless link "
                    "(authors' judgment; cf. the Street View episode)."
                ),
                authorities=("paper_judgment",),
            )
        )
        return True, steps

    steps.append(
        ReasoningStep(
            source=LegalSource.DOCTRINE,
            text=(
                "Link/IP/transport headers broadcast over the air are "
                "analogous to the address on an envelope and carry no "
                "reasonable expectation of privacy (authors' judgment; "
                "cf. WarDriving)."
            ),
            authorities=("paper_judgment", "smith_v_maryland"),
        )
    )
    return False, steps
