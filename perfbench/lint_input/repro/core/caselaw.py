"""A machine-readable database of the authorities the paper relies on.

Each :class:`Authority` is either a court case, a statute section, or the
paper itself (for the rows of Table 1 the authors marked ``(*)`` as their own
judgment).  Rulings produced by the compliance engine carry citation keys
into this registry so every conclusion is traceable to its source, exactly
the way the paper footnotes each doctrinal statement.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterator


class AuthorityKind(enum.Enum):
    """What kind of legal authority a citation refers to."""

    CONSTITUTION = "constitution"
    STATUTE = "statute"
    CASE = "case"
    SECONDARY = "secondary"  # treatises, DOJ manual, the paper itself


@dataclasses.dataclass(frozen=True)
class Authority:
    """One citable authority.

    Attributes:
        key: Short stable identifier used by reasoning steps.
        kind: The authority's kind.
        citation: Bluebook-ish citation string.
        holding: One-sentence statement of what the authority stands for,
            phrased the way the paper uses it.
    """

    key: str
    kind: AuthorityKind
    citation: str
    holding: str


class AuthorityRegistry:
    """Registry of authorities, keyed by their short identifier."""

    def __init__(self) -> None:
        self._authorities: dict[str, Authority] = {}

    def add(self, authority: Authority) -> None:
        """Register an authority; duplicate keys are a programming error."""
        if authority.key in self._authorities:
            raise ValueError(f"duplicate authority key: {authority.key!r}")
        self._authorities[authority.key] = authority

    def get(self, key: str) -> Authority:
        """Look up an authority by key; raises ``KeyError`` if unknown."""
        return self._authorities[key]

    def __contains__(self, key: str) -> bool:
        return key in self._authorities

    def __len__(self) -> int:
        return len(self._authorities)

    def __iter__(self) -> Iterator[Authority]:
        return iter(self._authorities.values())

    def cases(self) -> list[Authority]:
        """All registered court cases."""
        return [a for a in self if a.kind is AuthorityKind.CASE]


def build_default_registry() -> AuthorityRegistry:
    """Build the registry of every authority the paper cites and uses."""
    registry = AuthorityRegistry()
    for authority in _DEFAULT_AUTHORITIES:
        registry.add(authority)
    return registry


_DEFAULT_AUTHORITIES: tuple[Authority, ...] = (
    # --- Constitutional / statutory anchors -------------------------------
    Authority(
        key="fourth_amendment",
        kind=AuthorityKind.CONSTITUTION,
        citation="U.S. Const. amend. IV",
        holding=(
            "No unreasonable searches and seizures; warrants issue only on "
            "probable cause, particularly describing the place and things."
        ),
    ),
    Authority(
        key="wiretap_act",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. §§ 2510-2522 (Title III)",
        holding=(
            "Prohibits unauthorized real-time interception of the contents "
            "of wire, oral, and electronic communications."
        ),
    ),
    Authority(
        key="sca",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. §§ 2701-2712 (Stored Communications Act)",
        holding=(
            "Regulates government access to stored content and non-content "
            "records held by ECS and RCS providers."
        ),
    ),
    Authority(
        key="pen_trap",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. §§ 3121-3127 (Pen/Trap statute)",
        holding=(
            "Requires a court order to install pen registers and trap-and-"
            "trace devices collecting addressing and other non-content "
            "information in real time."
        ),
    ),
    Authority(
        key="sca_2702",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 2702",
        holding=(
            "Public providers may not voluntarily disclose customer content "
            "to the government outside enumerated exceptions; non-public "
            "providers may disclose freely."
        ),
    ),
    Authority(
        key="sca_2703",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 2703",
        holding=(
            "Tiers of compelled disclosure: subpoena for basic subscriber "
            "information, 2703(d) court order for transactional records, "
            "warrant for stored content."
        ),
    ),
    Authority(
        key="pen_trap_provider_exception",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 3121(b)",
        holding=(
            "Providers may use pen/trap devices relating to the operation, "
            "maintenance, and testing of their own service without an order."
        ),
    ),
    Authority(
        key="wiretap_provider_exception",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 2511(2)(a)(i)",
        holding=(
            "Service providers may intercept in the normal course of "
            "business to protect their rights and property."
        ),
    ),
    Authority(
        key="trespasser_exception",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 2511(2)(i)",
        holding=(
            "Victims of computer attacks may authorize persons acting under "
            "color of law to monitor trespassers on their systems."
        ),
    ),
    Authority(
        key="public_access_exception",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 2511(2)(g)(i)",
        holding=(
            "Any person may intercept an electronic communication made "
            "through a system configured so the communication is readily "
            "accessible to the general public."
        ),
    ),
    Authority(
        key="one_party_consent",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 2511(2)(c)",
        holding=(
            "Interception is lawful where one party to the communication "
            "consents (federal rule)."
        ),
    ),
    Authority(
        key="emergency_pen_trap",
        kind=AuthorityKind.STATUTE,
        citation="18 U.S.C. § 3125",
        holding=(
            "Emergency pen/trap installation without an order for immediate "
            "danger, organized crime, national security, or ongoing attacks "
            "on protected computers."
        ),
    ),
    # --- Cases -------------------------------------------------------------
    Authority(
        key="katz",
        kind=AuthorityKind.CASE,
        citation="Katz v. United States, 389 U.S. 347 (1967)",
        holding=(
            "The Fourth Amendment protects people, not places; a person in "
            "a closed phone booth has a reasonable expectation of privacy "
            "in the call's contents."
        ),
    ),
    Authority(
        key="kyllo",
        kind=AuthorityKind.CASE,
        citation="Kyllo v. United States, 533 U.S. 27 (2001)",
        holding=(
            "Using sense-enhancing technology not in general public use to "
            "obtain information about the interior of a home is a search."
        ),
    ),
    Authority(
        key="smith_v_maryland",
        kind=AuthorityKind.CASE,
        citation="Smith v. Maryland, 442 U.S. 735 (1979)",
        holding=(
            "No reasonable expectation of privacy in dialed numbers "
            "voluntarily conveyed to the phone company (third-party "
            "doctrine)."
        ),
    ),
    Authority(
        key="gates",
        kind=AuthorityKind.CASE,
        citation="Illinois v. Gates, 462 U.S. 213 (1983)",
        holding=(
            "Probable cause is a fair probability, judged on the totality "
            "of the circumstances."
        ),
    ),
    Authority(
        key="matlock",
        kind=AuthorityKind.CASE,
        citation="United States v. Matlock, 415 U.S. 164 (1974)",
        holding=(
            "A co-occupant with common authority may consent to a search "
            "of jointly controlled areas."
        ),
    ),
    Authority(
        key="mincey",
        kind=AuthorityKind.CASE,
        citation="Mincey v. Arizona, 437 U.S. 385 (1978)",
        holding=(
            "Exigent circumstances permit warrantless action immediately "
            "necessary to protect safety or preserve evidence."
        ),
    ),
    Authority(
        key="knights",
        kind=AuthorityKind.CASE,
        citation="United States v. Knights, 534 U.S. 112 (2001)",
        holding=(
            "Probationers have a diminished expectation of privacy and may "
            "be searched on reasonable suspicion."
        ),
    ),
    Authority(
        key="forrester",
        kind=AuthorityKind.CASE,
        citation="United States v. Forrester, 512 F.3d 500 (9th Cir. 2008)",
        holding=(
            "E-mail TO/FROM addresses, IP addresses, and volume are "
            "non-content addressing information under the Pen/Trap statute."
        ),
    ),
    Authority(
        key="crist",
        kind=AuthorityKind.CASE,
        citation="United States v. Crist, 627 F. Supp. 2d 575 (M.D. Pa. 2008)",
        holding=(
            "Running hash checks across a drive is a Fourth Amendment "
            "search requiring a warrant even when the drive is lawfully "
            "held."
        ),
    ),
    Authority(
        key="sloane",
        kind=AuthorityKind.CASE,
        citation="State v. Sloane, 939 A.2d 796 (N.J. 2008)",
        holding=(
            "Mining a database the government already lawfully possesses "
            "for patterns is not a fresh search."
        ),
    ),
    Authority(
        key="gorshkov",
        kind=AuthorityKind.CASE,
        citation="United States v. Gorshkov, 2001 WL 1024026 (W.D. Wash. 2001)",
        holding=(
            "Information knowingly exposed to another or to the public "
            "carries no reasonable expectation of privacy."
        ),
    ),
    Authority(
        key="king_shared_folder",
        kind=AuthorityKind.CASE,
        citation="United States v. King, 509 F.3d 1338 (11th Cir. 2007)",
        holding=(
            "Sharing a folder over a network forfeits the expectation of "
            "privacy in its contents, even on one's own computer."
        ),
    ),
    Authority(
        key="stults_p2p",
        kind=AuthorityKind.CASE,
        citation="United States v. Stults, 2007 WL 4284721 (D. Neb. 2007)",
        holding=(
            "Files shared through peer-to-peer software carry no reasonable "
            "expectation of privacy."
        ),
    ),
    Authority(
        key="king_delivery",
        kind=AuthorityKind.CASE,
        citation="United States v. King, 55 F.3d 1193 (6th Cir. 1995)",
        holding=(
            "A sender's expectation of privacy in a communication "
            "terminates upon delivery to the recipient."
        ),
    ),
    Authority(
        key="ziegler",
        kind=AuthorityKind.CASE,
        citation="United States v. Ziegler, 474 F.3d 1184 (9th Cir. 2007)",
        holding=(
            "A private employer may consent to a search of workplace "
            "computers it owns."
        ),
    ),
    Authority(
        key="oconnor",
        kind=AuthorityKind.CASE,
        citation="O'Connor v. Ortega, 480 U.S. 709 (1987)",
        holding=(
            "Government employers may conduct warrantless work-related "
            "searches that are justified at inception and permissible in "
            "scope."
        ),
    ),
    Authority(
        key="villanueva",
        kind=AuthorityKind.CASE,
        citation="United States v. Villanueva, 32 F. Supp. 2d 635 (S.D.N.Y. 1998)",
        holding=(
            "Monitoring of an intruder at the victim's invitation falls "
            "within the computer-trespasser rationale."
        ),
    ),
    Authority(
        key="megahed",
        kind=AuthorityKind.CASE,
        citation="United States v. Megahed, 2009 WL 722481 (M.D. Fla. 2009)",
        holding=(
            "Revoking consent does not restore privacy in a mirror image "
            "already lawfully made."
        ),
    ),
    Authority(
        key="long_no_technique_limit",
        kind=AuthorityKind.CASE,
        citation="United States v. Long, 425 F.3d 482 (7th Cir. 2005)",
        holding=(
            "The Fourth Amendment does not limit the techniques an examiner "
            "may use on data responsive to a warrant."
        ),
    ),
    Authority(
        key="perez_ip",
        kind=AuthorityKind.CASE,
        citation="United States v. Perez, 484 F.3d 735 (5th Cir. 2007)",
        holding=(
            "An IP address linked to criminal traffic supports probable "
            "cause for a warrant on the subscriber's premises, unsecured "
            "Wi-Fi notwithstanding."
        ),
    ),
    Authority(
        key="gourde_membership",
        kind=AuthorityKind.CASE,
        citation="United States v. Gourde, 440 F.3d 1065 (9th Cir. 2006)",
        holding=(
            "Paid membership in a child-pornography site can establish "
            "probable cause."
        ),
    ),
    Authority(
        key="coreas_membership",
        kind=AuthorityKind.CASE,
        citation="United States v. Coreas, 419 F.3d 151 (2d Cir. 2005)",
        holding=(
            "Mere membership alone does not necessarily establish probable "
            "cause; evidence of intent strengthens the showing."
        ),
    ),
    Authority(
        key="steve_jackson",
        kind=AuthorityKind.CASE,
        citation=(
            "Steve Jackson Games, Inc. v. United States Secret Service, "
            "36 F.3d 457 (5th Cir. 1994)"
        ),
        holding=(
            "Acquisition of stored e-mail is not an 'interception' under "
            "Title III; interception must be contemporaneous with "
            "transmission."
        ),
    ),
    Authority(
        key="andersen_consulting",
        kind=AuthorityKind.CASE,
        citation="Andersen Consulting LLP v. UOP, 991 F. Supp. 1041 (N.D. Ill. 1998)",
        holding=(
            "A provider that does not serve the public is not an RCS; "
            "opened mail on a non-public server falls outside the SCA."
        ),
    ),
    Authority(
        key="leon",
        kind=AuthorityKind.CASE,
        citation="United States v. Leon, 468 U.S. 897 (1984)",
        holding=(
            "Evidence obtained in objectively reasonable reliance on a "
            "facially valid warrant is not suppressed even if the warrant "
            "is later invalidated (the good-faith exception)."
        ),
    ),
    Authority(
        key="nix_v_williams",
        kind=AuthorityKind.CASE,
        citation="Nix v. Williams, 467 U.S. 431 (1984)",
        holding=(
            "Unlawfully obtained evidence is admissible if routine lawful "
            "procedure would inevitably have discovered it."
        ),
    ),
    Authority(
        key="wong_sun",
        kind=AuthorityKind.CASE,
        citation="Wong Sun v. United States, 371 U.S. 471 (1963)",
        holding=(
            "Evidence derived from an illegal search is fruit of the "
            "poisonous tree unless the taint has attenuated."
        ),
    ),
    # --- Secondary sources ---------------------------------------------------
    Authority(
        key="doj_manual",
        kind=AuthorityKind.SECONDARY,
        citation=(
            "Jarrett & Bailie, Searching and Seizing Computers and Obtaining "
            "Electronic Evidence in Criminal Investigations (DOJ)"
        ),
        holding="DOJ manual synthesizing the search-and-seizure doctrine.",
    ),
    Authority(
        key="kerr_treatise",
        kind=AuthorityKind.SECONDARY,
        citation="Kerr, Computer Crime Law (2d ed. 2009)",
        holding="Treatise framing of the Wiretap/SCA/Pen-Trap triad.",
    ),
    Authority(
        key="paper_judgment",
        kind=AuthorityKind.SECONDARY,
        citation=(
            "Huang et al., When Digital Forensic Research Meets Laws "
            "(ICDCS 2012) — authors' judgment, Table 1 rows marked (*)"
        ),
        holding=(
            "Authors' own classification of scenes lacking controlling "
            "precedent (open/encrypted Wi-Fi logging, credentialed remote "
            "access after arrest)."
        ),
    ),
    Authority(
        key="prusty_oneswarm",
        kind=AuthorityKind.SECONDARY,
        citation=(
            "Prusty, Levine & Liberatore, Forensic Investigation of the "
            "OneSwarm Anonymous Filesharing System (CCS 2011)"
        ),
        holding=(
            "Timing analysis of query responses identifies sources in "
            "anonymous P2P overlays using only protocol-visible traffic."
        ),
    ),
    Authority(
        key="huang_watermark",
        kind=AuthorityKind.SECONDARY,
        citation=(
            "Huang, Pan, Fu & Wang, Long PN Code Based DSSS Watermarking "
            "(INFOCOM 2011)"
        ),
        holding=(
            "Spread-spectrum modulation of traffic rates traces flows "
            "through anonymity networks from rate observations alone."
        ),
    ),
)
