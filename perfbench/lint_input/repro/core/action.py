"""The investigative action model.

An :class:`InvestigativeAction` is the engine's unit of analysis: one actor
acquiring one kind of data, at one time relative to transmission, in one
environment, under zero or more claimed exceptions.  Table 1 of the paper is
twenty such actions; every technique in :mod:`repro.techniques` describes the
actions it must perform so the engine can rule on them before they run.
"""

from __future__ import annotations

import dataclasses

from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, ConsentScope, DataKind, Timing


@dataclasses.dataclass(frozen=True)
class ConsentFacts:
    """Facts about any consent offered to justify the action.

    Attributes:
        scope: Who consented (see :class:`~repro.core.enums.ConsentScope`).
        voluntary: Whether the consent was voluntarily given.
        exceeds_authority: The search would reach spaces the consenter has
            no common authority over (e.g. a co-user consenting to another
            user's password-protected files — Matlock/Trulock line).
        revoked: The consent has been revoked.  Revocation stops future
            searching but does not restore privacy in copies already made
            (Megahed).
        covers_target_data: Whether the consented scope actually covers the
            specific data the action acquires (Table 1 scene 16: the victim
            can consent to monitoring *their* machine but not to collection
            on the attacker's machine).
    """

    scope: ConsentScope = ConsentScope.NONE
    voluntary: bool = True
    exceeds_authority: bool = False
    revoked: bool = False
    covers_target_data: bool = True

    def effective(self) -> bool:
        """Whether the consent actually authorizes the acquisition."""
        return (
            self.scope is not ConsentScope.NONE
            and self.voluntary
            and not self.exceeds_authority
            and not self.revoked
            and self.covers_target_data
        )


@dataclasses.dataclass(frozen=True)
class DoctrineFacts:
    """Doctrine-specific flags the general model cannot derive.

    These correspond to the narrow holdings the paper leans on for
    individual Table 1 rows.

    Attributes:
        exigent_circumstances: Evidence destruction / danger / hot pursuit
            / escape risk (Mincey; paper section III.B.b).
        plain_view: Incriminating material observed from a lawful vantage
            point with immediately apparent character.
        target_on_probation: Target is on probation/parole/supervised
            release (Knights).
        emergency_pen_trap: A statutory pen/trap emergency under 18 U.S.C.
            3125 with the required high-level approval.
        hash_search_of_lawful_media: Running hash comparisons across media
            already lawfully in custody — still a search (Crist, scene 18).
        mining_of_lawful_data: Mining a database already lawfully held for
            hidden patterns — not a fresh search (Sloane, scene 19).
        credentials_lawfully_obtained: Remote data accessed with
            credentials lawfully obtained from an arrested defendant
            (scene 20, authors' judgment).
        monitoring_own_network: The actor observes traffic on a network it
            owns/operates (provider exceptions; Table 1 scenes 1-2).
        victim_invited_monitoring: The system owner under attack invited
            the monitoring of the intruder (computer-trespasser exception,
            scene 15).
    """

    exigent_circumstances: bool = False
    plain_view: bool = False
    target_on_probation: bool = False
    emergency_pen_trap: bool = False
    hash_search_of_lawful_media: bool = False
    mining_of_lawful_data: bool = False
    credentials_lawfully_obtained: bool = False
    monitoring_own_network: bool = False
    victim_invited_monitoring: bool = False


@dataclasses.dataclass(frozen=True)
class InvestigativeAction:
    """One investigative acquisition to be ruled on by the engine.

    Attributes:
        description: Human-readable statement of what is being done.
        actor: Who performs the acquisition.
        data_kind: What category of data is acquired.
        timing: Real-time interception vs access to stored data.
        context: The environment the data lives in.
        consent: Facts about any consent relied upon.
        doctrine: Narrow doctrine flags (see :class:`DoctrineFacts`).
    """

    description: str
    actor: Actor
    data_kind: DataKind
    timing: Timing
    context: EnvironmentContext
    consent: ConsentFacts = dataclasses.field(default_factory=ConsentFacts)
    doctrine: DoctrineFacts = dataclasses.field(default_factory=DoctrineFacts)

    def is_government_action(self) -> bool:
        """Whether the Fourth Amendment's state-action requirement is met."""
        return self.actor in (Actor.GOVERNMENT, Actor.GOVERNMENT_AGENT)

    def acquires_content(self) -> bool:
        """Whether the action reaches communication *contents*."""
        return self.data_kind is DataKind.CONTENT

    def real_time(self) -> bool:
        """Whether acquisition is contemporaneous with transmission."""
        return self.timing is Timing.REAL_TIME

    def fingerprint(self) -> tuple:
        """Canonical hashable projection of this action's ruling inputs.

        Two actions with equal fingerprints always receive identical
        rulings; see :mod:`repro.core.fingerprint` for the normalization
        rules (``description`` is excluded — the engine never reads it).
        """
        from repro.core.fingerprint import action_fingerprint

        return action_fingerprint(self)
