"""Foundational enumerations for the legal-compliance core.

These enums encode the vocabulary of the paper: who acts, what kind of data
is touched, when it is touched (in flight vs at rest), where it lives, what
legal process exists, and which evidentiary standard a showing satisfies.

Every other module in :mod:`repro.core` builds on these types, so they are
deliberately small, explicit, and heavily documented.
"""

from __future__ import annotations

import enum


class Actor(enum.Enum):
    """Who performs the investigative action.

    The Fourth Amendment restrains only the government and those acting as
    its agents; a genuinely private search is outside its scope (paper
    section III.B.i, "Private Search").
    """

    GOVERNMENT = "government"
    #: A private party acting at the government's instigation is treated as
    #: a government agent (the "agent of the government" doctrine).
    GOVERNMENT_AGENT = "government_agent"
    #: A private party acting on its own behaviour — repair shops, network
    #: administrators monitoring their own networks, nosy neighbours.
    PRIVATE = "private"
    #: The provider of the communication service being observed.  Providers
    #: enjoy statutory self-protection exceptions (Wiretap Act
    #: 2511(2)(a)(i); Pen/Trap 3121(b)).
    PROVIDER = "provider"


class DataKind(enum.Enum):
    """The category of data an action acquires.

    The statutory scheme turns almost entirely on this split: Title III
    regulates *content*, the Pen/Trap statute regulates *addressing and
    other non-content* information, and the SCA has separate tiers for
    subscriber info, transactional records, and stored content.
    """

    #: The substance of a communication — message bodies, payloads, page
    #: contents (18 U.S.C. 2510(8)).
    CONTENT = "content"
    #: Dialing/routing/addressing/signalling information — IP headers,
    #: TCP/UDP ports, e-mail TO/FROM, packet sizes (18 U.S.C. 3127(3)-(4)).
    NON_CONTENT = "non_content"
    #: Basic subscriber information held by a provider: name, address,
    #: connection logs, payment data (18 U.S.C. 2703(c)(2)).
    SUBSCRIBER_INFO = "subscriber_info"
    #: Other transactional records held by a provider (2703(c)(1)).
    TRANSACTIONAL_RECORD = "transactional_record"
    #: Physical items (computers, drives) rather than data per se.
    PHYSICAL = "physical"


class Timing(enum.Enum):
    """When relative to transmission the data is acquired.

    Real-time acquisition of content triggers the Wiretap Act; acquisition
    of the same bytes at rest triggers the SCA or the Fourth Amendment.
    The contemporaneity requirement keeps the two regimes apart (paper
    section III.A.3).
    """

    REAL_TIME = "real_time"
    STORED = "stored"


class Place(enum.Enum):
    """Where the data lives when acquired."""

    #: The suspect's own computer, home, or personal effects.
    SUSPECT_PREMISES = "suspect_premises"
    #: A third-party service provider (ISP, webmail, hosting).
    THIRD_PARTY_PROVIDER = "third_party_provider"
    #: In transit on a network path (backbone, ISP router, gateway).
    TRANSMISSION_PATH = "transmission_path"
    #: Broadcast over the air (wireless LAN radio range).
    WIRELESS_BROADCAST = "wireless_broadcast"
    #: Knowingly exposed in a public place or publicly accessible service
    #: (public web site, open chat room, P2P shares).
    PUBLIC = "public"
    #: Lawfully in the government's possession already (seized drive,
    #: surrendered database).
    GOVERNMENT_CUSTODY = "government_custody"
    #: The network of the party consenting to the monitoring (victim's
    #: machine, employer's network).
    CONSENTING_NETWORK = "consenting_network"


class ProcessKind(enum.IntEnum):
    """Legal process kinds, ordered by the difficulty of obtaining them.

    The integer ordering encodes the paper's observation that "the degree of
    difficulty for the above processes is in the ascending order" (section
    II.A): a warrant always suffices where a court order would, and a court
    order where a subpoena would.  ``WIRETAP_ORDER`` (a Title III
    "super-warrant") sits above an ordinary search warrant.
    """

    NONE = 0
    SUBPOENA = 1
    COURT_ORDER = 2
    SEARCH_WARRANT = 3
    WIRETAP_ORDER = 4

    @property
    def display_name(self) -> str:
        """Human-readable name used in reports."""
        return _PROCESS_NAMES[self]

    def satisfies(self, required: "ProcessKind") -> bool:
        """Whether holding this process satisfies a requirement.

        A stronger process satisfies any weaker requirement; this mirrors
        the doctrine that a warrant can compel anything a subpoena could.
        """
        return self >= required


_PROCESS_NAMES = {
    ProcessKind.NONE: "no process",
    ProcessKind.SUBPOENA: "subpoena",
    ProcessKind.COURT_ORDER: "court order",
    ProcessKind.SEARCH_WARRANT: "search warrant",
    ProcessKind.WIRETAP_ORDER: "wiretap order (Title III)",
}


class Standard(enum.IntEnum):
    """Evidentiary standards, ordered by strength of the required showing.

    Section II.A: "Merely a suspicion is enough to apply for a subpoena.
    Some 'specific and articulable facts' are needed to apply for a court
    order.  Probable cause is necessary to apply for a search warrant."
    """

    NOTHING = 0
    MERE_SUSPICION = 1
    SPECIFIC_AND_ARTICULABLE_FACTS = 2
    PROBABLE_CAUSE = 3
    #: Title III adds necessity/exhaustion findings on top of probable cause.
    SUPER_WARRANT_SHOWING = 4

    def satisfies(self, required: "Standard") -> bool:
        """Whether a showing at this level meets a required standard."""
        return self >= required


#: The showing each kind of process demands from the applicant.
REQUIRED_SHOWING: dict[ProcessKind, Standard] = {
    ProcessKind.NONE: Standard.NOTHING,
    ProcessKind.SUBPOENA: Standard.MERE_SUSPICION,
    ProcessKind.COURT_ORDER: Standard.SPECIFIC_AND_ARTICULABLE_FACTS,
    ProcessKind.SEARCH_WARRANT: Standard.PROBABLE_CAUSE,
    ProcessKind.WIRETAP_ORDER: Standard.SUPER_WARRANT_SHOWING,
}


class LegalSource(enum.Enum):
    """The body of law a reasoning step or requirement derives from."""

    FOURTH_AMENDMENT = "Fourth Amendment"
    WIRETAP_ACT = "Wiretap Act (Title III), 18 U.S.C. 2510-2522"
    SCA = "Stored Communications Act, 18 U.S.C. 2701-2712"
    PEN_TRAP = "Pen/Trap statute, 18 U.S.C. 3121-3127"
    DOCTRINE = "judicial doctrine"


class ProviderRole(enum.Enum):
    """SCA classification of a provider with respect to one message.

    Section III.A.3's Alice/Bob example: a provider is ECS while the
    message awaits retrieval, may become RCS once the recipient leaves the
    opened message in storage (public providers only), and a non-public
    provider holding an opened message is *neither* — the message "drops
    out of the SCA" and only the Fourth Amendment governs.
    """

    ECS = "electronic_communication_service"
    RCS = "remote_computing_service"
    NEITHER = "neither"


class ExceptionKind(enum.Enum):
    """Warrant-requirement and statutory exceptions (paper section III.B)."""

    NO_REP = "no reasonable expectation of privacy"
    EXIGENT_CIRCUMSTANCES = "exigent circumstances"
    CONSENT = "consent"
    EMERGENCY_PEN_TRAP = "emergency pen/trap (18 U.S.C. 3125)"
    PLAIN_VIEW = "plain view"
    PROBATION_PAROLE = "probation/parole"
    COMPUTER_TRESPASSER = "computer trespasser (2511(2)(i))"
    ACCESSIBLE_TO_PUBLIC = "accessible to the public (2511(2)(g)(i))"
    PRIVATE_SEARCH = "private search"
    PROVIDER_SELF_PROTECTION = "provider exception (2511(2)(a)(i) / 3121(b))"
    PARTY_CONSENT = "party to the communication consents (2511(2)(c))"


class ConsentScope(enum.Enum):
    """Who consented, which controls how far a consent search may reach."""

    NONE = "none"
    #: The target of the investigation consented.
    TARGET = "target"
    #: A co-user with common authority over shared space only.
    CO_USER_SHARED_SPACE = "co_user_shared_space"
    #: A spouse (may consent to all of the couple's property).
    SPOUSE = "spouse"
    #: A parent of a minor child.
    PARENT_OF_MINOR = "parent_of_minor"
    #: Private-sector employer over workplace systems.
    EMPLOYER = "employer"
    #: Owner/operator of the network where data resides (e.g. victim).
    NETWORK_OWNER = "network_owner"
    #: One party to a monitored communication (federal one-party rule).
    ONE_PARTY_TO_COMMUNICATION = "one_party"


class Admissibility(enum.Enum):
    """Outcome for a piece of evidence at a suppression hearing."""

    ADMISSIBLE = "admissible"
    SUPPRESSED = "suppressed"
    #: Derived from suppressed evidence (fruit of the poisonous tree).
    SUPPRESSED_DERIVATIVE = "suppressed_derivative"
