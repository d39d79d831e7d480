"""Extended scene catalogue: the paper's prose examples, encoded.

Table 1 is the paper's published test set, but sections II and III walk
through many more situations — Katz's phone booth, Kyllo's thermal
imager, the repairman's private search, the consent taxonomy, the
emergency pen/trap.  This module encodes each prose example with the
outcome the paper (or its cited case) dictates, giving the engine a
second, independent validation set.
"""

from __future__ import annotations

import dataclasses

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProcessKind,
    Timing,
)


@dataclasses.dataclass(frozen=True)
class ExtendedScene:
    """One prose example with its expected outcome.

    Attributes:
        scene_id: Short identifier (``E1``..).
        action: The encoded acquisition.
        expected_process: The process the paper/case law requires.
        basis: Which passage or case the expectation comes from.
    """

    scene_id: str
    action: InvestigativeAction
    expected_process: ProcessKind
    basis: str

    @property
    def needs_process(self) -> bool:
        """Whether the scene requires any legal process."""
        return self.expected_process is not ProcessKind.NONE


def build_extended_catalogue() -> tuple[ExtendedScene, ...]:
    """All encoded prose scenes, in paper order."""
    return (
        ExtendedScene(
            scene_id="E1",
            action=InvestigativeAction(
                description=(
                    "record the content of a call placed from a closed "
                    "phone booth, via a device outside the booth"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(
                    place=Place.TRANSMISSION_PATH, encrypted=False
                ),
            ),
            expected_process=ProcessKind.WIRETAP_ORDER,
            basis="Katz v. United States (paper section II.C.1)",
        ),
        ExtendedScene(
            scene_id="E2",
            action=InvestigativeAction(
                description=(
                    "record a conversation inside a house that is so loud "
                    "everyone on the street can hear it"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(
                    place=Place.SUSPECT_PREMISES, knowingly_exposed=True
                ),
            ),
            expected_process=ProcessKind.NONE,
            basis="paper section II.C.2 (knowing exposure)",
        ),
        ExtendedScene(
            scene_id="E3",
            action=InvestigativeAction(
                description=(
                    "aim a thermal imager at a home to map heat from the "
                    "rooms inside"
                ),
                actor=Actor.GOVERNMENT,
                # Heat emanations are a physical phenomenon, not a
                # communication — Title III has no purchase; the Fourth
                # Amendment (Kyllo) supplies the warrant requirement.
                data_kind=DataKind.PHYSICAL,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(
                    place=Place.SUSPECT_PREMISES,
                    home_interior=True,
                    technology_in_general_public_use=False,
                ),
            ),
            expected_process=ProcessKind.SEARCH_WARRANT,
            basis="Kyllo v. United States (paper section III.B.a)",
        ),
        ExtendedScene(
            scene_id="E4",
            action=InvestigativeAction(
                description=(
                    "read a file the suspect left on a public library "
                    "computer"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(
                    place=Place.PUBLIC, knowingly_exposed=True
                ),
            ),
            expected_process=ProcessKind.NONE,
            basis="Wilson v. Moreau; Butler (paper section II.C.2)",
        ),
        ExtendedScene(
            scene_id="E5",
            action=InvestigativeAction(
                description=(
                    "browse a folder the suspect shared with other users, "
                    "although it sits on his private computer"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(
                    place=Place.SUSPECT_PREMISES, shared_with_others=True
                ),
            ),
            expected_process=ProcessKind.NONE,
            basis="United States v. King (11th Cir.) (section II.C.2)",
        ),
        ExtendedScene(
            scene_id="E6",
            action=InvestigativeAction(
                description=(
                    "download files the suspect shares through ordinary "
                    "P2P software"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(
                    place=Place.PUBLIC,
                    knowingly_exposed=True,
                    shared_with_others=True,
                ),
            ),
            expected_process=ProcessKind.NONE,
            basis="United States v. Stults (section II.C.2)",
        ),
        ExtendedScene(
            scene_id="E7",
            action=InvestigativeAction(
                description=(
                    "a repair technician, on his own initiative, finds "
                    "contraband in a customer's computer and reports it"
                ),
                actor=Actor.PRIVATE,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
            ),
            expected_process=ProcessKind.NONE,
            basis="private search doctrine (paper section III.B.i)",
        ),
        ExtendedScene(
            scene_id="E8",
            action=InvestigativeAction(
                description=(
                    "search the couple's shared computer with one "
                    "spouse's consent"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                consent=ConsentFacts(scope=ConsentScope.SPOUSE),
            ),
            expected_process=ProcessKind.NONE,
            basis="Trulock/Matlock line (paper section III.B.c(ii))",
        ),
        ExtendedScene(
            scene_id="E9",
            action=InvestigativeAction(
                description=(
                    "search another user's password-protected files with "
                    "only a co-user's consent"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                consent=ConsentFacts(
                    scope=ConsentScope.CO_USER_SHARED_SPACE,
                    exceeds_authority=True,
                ),
            ),
            expected_process=ProcessKind.SEARCH_WARRANT,
            basis="Trulock v. Freeh (paper section III.B.c(i))",
        ),
        ExtendedScene(
            scene_id="E10",
            action=InvestigativeAction(
                description=(
                    "search a minor child's computer with a parent's "
                    "consent"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                consent=ConsentFacts(scope=ConsentScope.PARENT_OF_MINOR),
            ),
            expected_process=ProcessKind.NONE,
            basis="Lavin (paper section III.B.c(iii))",
        ),
        ExtendedScene(
            scene_id="E11",
            action=InvestigativeAction(
                description=(
                    "search an employee's workplace computer with the "
                    "private employer's consent"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                consent=ConsentFacts(scope=ConsentScope.EMPLOYER),
            ),
            expected_process=ProcessKind.NONE,
            basis="United States v. Ziegler (paper section III.B.c(iv))",
        ),
        ExtendedScene(
            scene_id="E12",
            action=InvestigativeAction(
                description=(
                    "search a probationer's computer on reasonable "
                    "suspicion"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                doctrine=DoctrineFacts(target_on_probation=True),
            ),
            expected_process=ProcessKind.NONE,
            basis="United States v. Knights (paper section III.B.f)",
        ),
        ExtendedScene(
            scene_id="E13",
            action=InvestigativeAction(
                description=(
                    "an undercover agent records his own conversation "
                    "with the suspect"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
                consent=ConsentFacts(
                    scope=ConsentScope.ONE_PARTY_TO_COMMUNICATION
                ),
            ),
            expected_process=ProcessKind.NONE,
            basis="2511(2)(c); Cassiere (paper section III.B.c(vi))",
        ),
        ExtendedScene(
            scene_id="E14",
            action=InvestigativeAction(
                description=(
                    "install an emergency pen register during an ongoing "
                    "attack on a protected computer"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.NON_CONTENT,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
                doctrine=DoctrineFacts(emergency_pen_trap=True),
            ),
            expected_process=ProcessKind.NONE,
            basis="18 U.S.C. 3125 (paper section III.B.d)",
        ),
        ExtendedScene(
            scene_id="E15",
            action=InvestigativeAction(
                description=(
                    "seize a self-wiping device immediately, before its "
                    "destroy command erases the evidence"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                doctrine=DoctrineFacts(exigent_circumstances=True),
            ),
            expected_process=ProcessKind.NONE,
            basis="exigent circumstances (paper section III.B.b)",
        ),
        ExtendedScene(
            scene_id="E16",
            action=InvestigativeAction(
                description=(
                    "seize contraband visible on a computer screen the "
                    "officer lawfully walked past"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
                doctrine=DoctrineFacts(plain_view=True),
            ),
            expected_process=ProcessKind.NONE,
            basis="plain view (paper section III.B.e)",
        ),
    )
