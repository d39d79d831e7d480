"""The twenty digital crime scenes of the paper's Table 1.

Each scene is encoded as an :class:`InvestigativeAction` together with the
paper's published answer ("Need" / "No need" for warrant/court
order/subpoena) and whether the paper marked the row ``(*)`` as the
authors' own judgment.  The Table 1 benchmark replays all twenty scenes
through the compliance engine and checks the answers match.
"""

from __future__ import annotations

import dataclasses

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, ConsentScope, DataKind, Place, Timing


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One Table 1 row: a scene plus the paper's published answer.

    Attributes:
        number: The row number (1-20) in the paper's Table 1.
        action: The encoded investigative action.
        paper_needs_process: The paper's answer — ``True`` for "Need".
        starred: Whether the paper marked the answer ``(*)`` (authors'
            judgment in the absence of controlling precedent).
    """

    number: int
    action: InvestigativeAction
    paper_needs_process: bool
    starred: bool = False

    @property
    def paper_answer(self) -> str:
        """The paper's answer string, as printed in Table 1."""
        answer = "Need" if self.paper_needs_process else "No need"
        return f"{answer} (*)" if self.starred else answer


def build_table1() -> tuple[Scenario, ...]:
    """Construct all twenty Table 1 scenes in paper order."""
    return (
        _scene_1_campus_headers(),
        _scene_2_campus_full_content(),
        _scene_3_open_wifi_headers(),
        _scene_4_open_wifi_content(),
        _scene_5_encrypted_wifi_headers(),
        _scene_6_encrypted_wifi_content(),
        _scene_7_isp_headers(),
        _scene_8_isp_full_packets(),
        _scene_9_normal_p2p(),
        _scene_10_anonymous_p2p(),
        _scene_11_public_website(),
        _scene_12_tor_hidden_server(),
        _scene_13_run_tor_node(),
        _scene_14_monitor_anonymizer(),
        _scene_15_victim_consent_own_machine(),
        _scene_16_reach_into_attacker_machine(),
        _scene_17_public_chat_room(),
        _scene_18_hash_search_seized_drive(),
        _scene_19_mine_lawful_database(),
        _scene_20_credentialed_remote_access(),
    )


def _scene_1_campus_headers() -> Scenario:
    return Scenario(
        number=1,
        action=InvestigativeAction(
            description=(
                "Campus IT logs all wired traffic headers (link/IP/TCP/UDP) "
                "transmitted within the campus' own cables and devices."
            ),
            actor=Actor.PROVIDER,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
            doctrine=DoctrineFacts(monitoring_own_network=True),
        ),
        paper_needs_process=False,
    )


def _scene_2_campus_full_content() -> Scenario:
    return Scenario(
        number=2,
        action=InvestigativeAction(
            description=(
                "Campus IT logs all wired traffic including payload on its "
                "own network; campus policy eliminates users' expectation "
                "of privacy."
            ),
            actor=Actor.PROVIDER,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.TRANSMISSION_PATH, policy_eliminates_rep=True
            ),
            doctrine=DoctrineFacts(monitoring_own_network=True),
        ),
        paper_needs_process=False,
    )


def _scene_3_open_wifi_headers() -> Scenario:
    return Scenario(
        number=3,
        action=InvestigativeAction(
            description=(
                "Officer outside a residence logs unencrypted wireless "
                "traffic headers (WarDriving / Street View header "
                "collection)."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.WIRELESS_BROADCAST),
        ),
        paper_needs_process=False,
        starred=True,
    )


def _scene_4_open_wifi_content() -> Scenario:
    return Scenario(
        number=4,
        action=InvestigativeAction(
            description=(
                "Officer outside a residence logs unencrypted wireless "
                "traffic including payload (the Street View payload "
                "capture)."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.WIRELESS_BROADCAST),
        ),
        paper_needs_process=True,
        starred=True,
    )


def _scene_5_encrypted_wifi_headers() -> Scenario:
    return Scenario(
        number=5,
        action=InvestigativeAction(
            description=(
                "Officer outside a residence logs encrypted wireless "
                "traffic headers."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.WIRELESS_BROADCAST, encrypted=True
            ),
        ),
        paper_needs_process=False,
        starred=True,
    )


def _scene_6_encrypted_wifi_content() -> Scenario:
    return Scenario(
        number=6,
        action=InvestigativeAction(
            description=(
                "Officer outside a residence logs encrypted wireless "
                "traffic including routing headers and payload."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.WIRELESS_BROADCAST, encrypted=True
            ),
        ),
        paper_needs_process=True,
        starred=True,
    )


def _scene_7_isp_headers() -> Scenario:
    return Scenario(
        number=7,
        action=InvestigativeAction(
            description=(
                "Officer on the public wired Internet logs packet headers "
                "and sizes at an ISP."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        ),
        paper_needs_process=True,
    )


def _scene_8_isp_full_packets() -> Scenario:
    return Scenario(
        number=8,
        action=InvestigativeAction(
            description=(
                "Officer on the public wired Internet logs entire packets "
                "(headers and payload) at an ISP."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        ),
        paper_needs_process=True,
    )


def _scene_9_normal_p2p() -> Scenario:
    return Scenario(
        number=9,
        action=InvestigativeAction(
            description=(
                "Officer uses normal P2P software to collect information "
                "publicly shown by the software (user names, shared file "
                "names)."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.PUBLIC, knowingly_exposed=True
            ),
        ),
        paper_needs_process=False,
    )


def _scene_10_anonymous_p2p() -> Scenario:
    return Scenario(
        number=10,
        action=InvestigativeAction(
            description=(
                "Officer uses anonymous P2P software to collect information "
                "publicly shown by the software."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.PUBLIC, knowingly_exposed=True
            ),
        ),
        paper_needs_process=False,
    )


def _scene_11_public_website() -> Scenario:
    return Scenario(
        number=11,
        action=InvestigativeAction(
            description=(
                "Officer collects the content of a public website anyone "
                "can access."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(
                place=Place.PUBLIC, knowingly_exposed=True
            ),
        ),
        paper_needs_process=False,
    )


def _scene_12_tor_hidden_server() -> Scenario:
    return Scenario(
        number=12,
        action=InvestigativeAction(
            description=(
                "Officer investigates a Tor hidden web server; the hidden "
                "server acts as an ISP."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(
                place=Place.THIRD_PARTY_PROVIDER,
                provider_serves_public=True,
            ),
        ),
        paper_needs_process=True,
    )


def _scene_13_run_tor_node() -> Scenario:
    return Scenario(
        number=13,
        action=InvestigativeAction(
            description=(
                "Officer builds a Tor node and investigates traffic "
                "relayed through it; not a private search."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        ),
        paper_needs_process=True,
    )


def _scene_14_monitor_anonymizer() -> Scenario:
    return Scenario(
        number=14,
        action=InvestigativeAction(
            description=(
                "Officer monitors an Anonymizer server; the server acts as "
                "an ISP."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        ),
        paper_needs_process=True,
    )


def _scene_15_victim_consent_own_machine() -> Scenario:
    return Scenario(
        number=15,
        action=InvestigativeAction(
            description=(
                "An attack victim consents to the officer monitoring "
                "activity — including the attacker's — on the victim's own "
                "computer."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.CONSENTING_NETWORK),
            consent=ConsentFacts(
                scope=ConsentScope.NETWORK_OWNER, covers_target_data=True
            ),
            doctrine=DoctrineFacts(victim_invited_monitoring=True),
        ),
        paper_needs_process=False,
    )


def _scene_16_reach_into_attacker_machine() -> Scenario:
    return Scenario(
        number=16,
        action=InvestigativeAction(
            description=(
                "Same attack, but the officer reaches out to monitor and "
                "collect data *inside the attacker's computer*."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
            consent=ConsentFacts(
                scope=ConsentScope.NETWORK_OWNER, covers_target_data=False
            ),
            doctrine=DoctrineFacts(victim_invited_monitoring=True),
        ),
        paper_needs_process=True,
    )


def _scene_17_public_chat_room() -> Scenario:
    return Scenario(
        number=17,
        action=InvestigativeAction(
            description=(
                "Officer collects content in a public chat room anyone can "
                "access, with or without registration."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(
                place=Place.PUBLIC, knowingly_exposed=True
            ),
        ),
        paper_needs_process=False,
    )


def _scene_18_hash_search_seized_drive() -> Scenario:
    return Scenario(
        number=18,
        action=InvestigativeAction(
            description=(
                "Officer runs hash comparisons across an entire lawfully "
                "obtained hard drive hunting for a particular file (Crist)."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(place=Place.GOVERNMENT_CUSTODY),
            doctrine=DoctrineFacts(hash_search_of_lawful_media=True),
        ),
        paper_needs_process=True,
    )


def _scene_19_mine_lawful_database() -> Scenario:
    return Scenario(
        number=19,
        action=InvestigativeAction(
            description=(
                "Officer mines a lawfully obtained database for hidden "
                "patterns (Sloane)."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(place=Place.GOVERNMENT_CUSTODY),
            doctrine=DoctrineFacts(mining_of_lawful_data=True),
        ),
        paper_needs_process=False,
    )


def _scene_20_credentialed_remote_access() -> Scenario:
    return Scenario(
        number=20,
        action=InvestigativeAction(
            description=(
                "After arrest, officer uses the defendant's username and "
                "password to retrieve the defendant's data from a remote "
                "computer."
            ),
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.CONTENT,
            timing=Timing.STORED,
            context=EnvironmentContext(
                place=Place.THIRD_PARTY_PROVIDER,
                provider_serves_public=True,
            ),
            doctrine=DoctrineFacts(credentials_lawfully_obtained=True),
        ),
        paper_needs_process=False,
    )
