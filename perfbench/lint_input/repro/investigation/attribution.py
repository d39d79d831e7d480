"""Attribution and intent analysis (paper section III.A.2).

The paper's three requirements for a good search technique:

  (i) "prove the action of a particular individual to put contraband on
      the hard drive rather than allowing for the possibility that
      someone else with access to the computer did so";
 (ii) "confirm that a virus or other piece of malware was not responsible
      for the crime";
(iii) "show that a defendant had knowledge of the particular subject" —
      e.g. browsing history and cookies revealing research into the
      crime.

This module implements that analysis over machine artifacts: user
accounts, login records, browsing history, malware scans, and the
contraband file's metadata.  The output grades the attribution and can be
converted into a court :class:`~repro.court.application.Fact` at the
strength the analysis supports.
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import Standard
from repro.court.application import Fact


@dataclasses.dataclass(frozen=True)
class UserAccount:
    """One account on the examined machine."""

    username: str
    password_protected: bool


@dataclasses.dataclass(frozen=True)
class LoginRecord:
    """One login session on the machine."""

    username: str
    login_at: float
    logout_at: float

    def active_at(self, time: float) -> bool:
        """Whether the session covered an instant."""
        return self.login_at <= time <= self.logout_at


@dataclasses.dataclass(frozen=True)
class BrowsingRecord:
    """One browsing-history entry (URL or search query)."""

    username: str
    timestamp: float
    entry: str


@dataclasses.dataclass(frozen=True)
class MalwareScanResult:
    """Outcome of the forensic malware scan."""

    clean: bool
    findings: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class MachineProfile:
    """Everything the examiner extracted about the machine's use."""

    accounts: tuple[UserAccount, ...]
    logins: tuple[LoginRecord, ...]
    browsing: tuple[BrowsingRecord, ...]
    malware_scan: MalwareScanResult


@dataclasses.dataclass(frozen=True)
class AttributionReport:
    """The three-prong analysis outcome.

    Attributes:
        attributed_user: The individual the artifact is attributed to, if
            attribution succeeded.
        exclusive_attribution: Only that user was logged in when the
            artifact appeared, and the account is password-protected.
        malware_ruled_out: The scan was clean.
        knowledge_shown: The attributed user's browsing shows research
            into the crime's subject.
        knowledge_entries: The history entries supporting knowledge.
        supports: The evidentiary standard the full picture supports.
    """

    attributed_user: str | None
    exclusive_attribution: bool
    malware_ruled_out: bool
    knowledge_shown: bool
    knowledge_entries: tuple[str, ...]
    supports: Standard

    def to_fact(self, artifact: str, observed_at: float = 0.0) -> Fact:
        """Package the analysis as a court fact at its supported strength."""
        if self.attributed_user is None:
            description = (
                f"examination of {artifact} could not attribute the "
                f"artifact to an individual"
            )
        else:
            prongs = []
            if self.exclusive_attribution:
                prongs.append("exclusive account access")
            if self.malware_ruled_out:
                prongs.append("malware ruled out")
            if self.knowledge_shown:
                prongs.append("subject-matter research in history")
            description = (
                f"{artifact} attributed to {self.attributed_user} "
                f"({'; '.join(prongs) if prongs else 'weak attribution'})"
            )
        return Fact(
            description=description,
            supports=self.supports,
            observed_at=observed_at,
        )


class AttributionAnalyzer:
    """Runs the section III.A.2 analysis for one artifact.

    Args:
        crime_keywords: Terms whose presence in the attributed user's
            browsing history shows knowledge of the subject (the paper's
            methamphetamine-laboratory example).
    """

    def __init__(self, crime_keywords: list[str]) -> None:
        if not crime_keywords:
            raise ValueError("at least one crime keyword is required")
        self.crime_keywords = [kw.lower() for kw in crime_keywords]

    def analyze(
        self, profile: MachineProfile, artifact_created_at: float
    ) -> AttributionReport:
        """Attribute one artifact created at a known time.

        Returns:
            The three-prong report; ``supports`` is graded:
            all three prongs -> probable cause, attribution plus one
            other prong -> specific and articulable facts, bare
            attribution -> mere suspicion, none -> nothing.
        """
        active = [
            record
            for record in profile.logins
            if record.active_at(artifact_created_at)
        ]
        active_users = {record.username for record in active}

        attributed: str | None = None
        exclusive = False
        if len(active_users) == 1:
            attributed = next(iter(active_users))
            account = next(
                (
                    acct
                    for acct in profile.accounts
                    if acct.username == attributed
                ),
                None,
            )
            exclusive = account is not None and account.password_protected

        malware_ruled_out = profile.malware_scan.clean

        knowledge_entries: tuple[str, ...] = ()
        if attributed is not None:
            knowledge_entries = tuple(
                record.entry
                for record in profile.browsing
                if record.username == attributed
                and any(
                    keyword in record.entry.lower()
                    for keyword in self.crime_keywords
                )
            )
        knowledge_shown = bool(knowledge_entries)

        supports = self._grade(
            attributed, exclusive, malware_ruled_out, knowledge_shown
        )
        return AttributionReport(
            attributed_user=attributed,
            exclusive_attribution=exclusive,
            malware_ruled_out=malware_ruled_out,
            knowledge_shown=knowledge_shown,
            knowledge_entries=knowledge_entries,
            supports=supports,
        )

    @staticmethod
    def _grade(
        attributed: str | None,
        exclusive: bool,
        malware_ruled_out: bool,
        knowledge_shown: bool,
    ) -> Standard:
        if attributed is None:
            return Standard.NOTHING
        prongs = sum((exclusive, malware_ruled_out, knowledge_shown))
        if prongs == 3:
            return Standard.PROBABLE_CAUSE
        if prongs >= 1:
            return Standard.SPECIFIC_AND_ARTICULABLE_FACTS
        return Standard.MERE_SUSPICION
