"""Fourth Amendment analysis: search, seizure, and the warrant requirement.

The constitutional layer of the engine.  A government acquisition of data in
which the target retains a reasonable expectation of privacy is a "search"
and presumptively requires a search warrant supported by probable cause
(paper sections II.B.1 and III.A).
"""

from __future__ import annotations

from repro.core.action import InvestigativeAction
from repro.core.enums import LegalSource, ProcessKind
from repro.core.ruling import PrivacyFinding, ReasoningStep, Requirement


def evaluate(
    action: InvestigativeAction, privacy: PrivacyFinding
) -> Requirement | None:
    """Apply the Fourth Amendment to one action.

    Args:
        action: The acquisition under review.
        privacy: The Katz REP finding for the acquisition's target.

    Returns:
        A warrant :class:`Requirement` when the action is a search of a
        constitutionally protected interest, or ``None`` when the Fourth
        Amendment imposes no requirement (private actor, no REP, or a
        doctrine that takes the action outside "search").
    """
    if not action.is_government_action():
        # The state-action requirement: purely private searches are outside
        # the Fourth Amendment entirely (paper section III.B.i).
        return None

    doctrine = action.doctrine

    if doctrine.mining_of_lawful_data:
        # Sloane (Table 1 scene 19): analyzing data the government already
        # lawfully holds is not a fresh search.
        return None

    if doctrine.credentials_lawfully_obtained:
        # Table 1 scene 20 (authors' judgment): using credentials lawfully
        # obtained from an arrested defendant to retrieve the defendant's
        # remote data requires no further process.
        return None

    if doctrine.hash_search_of_lawful_media:
        # Crist (Table 1 scene 18): hashing an entire lawfully held drive
        # to hunt for particular files is itself a search, so lawful
        # custody of the media does not defeat the warrant requirement.
        return Requirement(
            source=LegalSource.FOURTH_AMENDMENT,
            process=ProcessKind.SEARCH_WARRANT,
            steps=(
                ReasoningStep(
                    source=LegalSource.FOURTH_AMENDMENT,
                    text=(
                        "Running hash comparisons across the entire drive "
                        "examines files beyond the lawful basis of custody "
                        "and is a search requiring a warrant."
                    ),
                    authorities=("crist",),
                ),
            ),
        )

    if not privacy.has_rep:
        # No reasonable expectation of privacy means no "search" occurred;
        # the Fourth Amendment imposes nothing (statutes may still apply).
        return None

    return Requirement(
        source=LegalSource.FOURTH_AMENDMENT,
        process=ProcessKind.SEARCH_WARRANT,
        steps=(
            ReasoningStep(
                source=LegalSource.FOURTH_AMENDMENT,
                text=(
                    "Government acquisition of data protected by a "
                    "reasonable expectation of privacy is a search and "
                    "presumptively requires a warrant on probable cause."
                ),
                authorities=("fourth_amendment", "katz"),
            ),
        ),
    )
