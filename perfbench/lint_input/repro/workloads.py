"""Synthetic workload generators.

Deterministic generators for scale testing and fuzzing: random (but
plausible) investigative actions for the compliance engine, and labelled
corpora for regression snapshots.  Everything is seeded — the same seed
always yields the same workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.engine import ComplianceEngine
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProcessKind,
    Timing,
)


def random_action(rng: random.Random, index: int = 0) -> InvestigativeAction:
    """One random-but-plausible investigative action.

    Flag probabilities are biased toward realistic scenes (most actions
    have no consent, no exigency, and no special doctrine) so a corpus
    exercises the common paths heavily and the exceptional ones lightly.
    """
    place = rng.choice(list(Place))
    context = EnvironmentContext(
        place=place,
        encrypted=rng.random() < 0.3,
        knowingly_exposed=rng.random() < 0.2,
        shared_with_others=rng.random() < 0.1,
        delivered_to_recipient=rng.random() < 0.2,
        provider_serves_public=(
            rng.choice([None, True, False])
            if place is Place.THIRD_PARTY_PROVIDER
            else None
        ),
        policy_eliminates_rep=rng.random() < 0.1,
        home_interior=rng.random() < 0.05,
        technology_in_general_public_use=rng.random() < 0.5,
        abandoned=rng.random() < 0.05,
    )
    consent = ConsentFacts(
        scope=(
            rng.choice(list(ConsentScope))
            if rng.random() < 0.25
            else ConsentScope.NONE
        ),
        voluntary=rng.random() < 0.95,
        exceeds_authority=rng.random() < 0.1,
        revoked=rng.random() < 0.05,
        covers_target_data=rng.random() < 0.9,
    )
    doctrine = DoctrineFacts(
        exigent_circumstances=rng.random() < 0.05,
        plain_view=rng.random() < 0.05,
        target_on_probation=rng.random() < 0.05,
        emergency_pen_trap=rng.random() < 0.02,
        hash_search_of_lawful_media=rng.random() < 0.05,
        mining_of_lawful_data=rng.random() < 0.05,
        credentials_lawfully_obtained=rng.random() < 0.03,
        monitoring_own_network=rng.random() < 0.1,
        victim_invited_monitoring=rng.random() < 0.05,
    )
    return InvestigativeAction(
        description=f"generated action #{index}",
        actor=rng.choice(list(Actor)),
        data_kind=rng.choice(list(DataKind)),
        timing=rng.choice(list(Timing)),
        context=context,
        consent=consent,
        doctrine=doctrine,
    )


def action_corpus(n: int, seed: int = 0) -> list[InvestigativeAction]:
    """A deterministic corpus of ``n`` random actions."""
    rng = random.Random(seed)
    return [random_action(rng, index) for index in range(n)]


@dataclasses.dataclass(frozen=True)
class LabeledAction:
    """An action plus the engine's ruling on it."""

    action: InvestigativeAction
    required_process: ProcessKind
    needs_process: bool


def labeled_corpus(
    n: int, seed: int = 0, engine: ComplianceEngine | None = None
) -> list[LabeledAction]:
    """A corpus with engine labels attached (for regression snapshots).

    Labelling goes through :meth:`ComplianceEngine.evaluate_many`, which
    deduplicates equal-fingerprint actions within the batch — the labels
    are identical to a per-action ``evaluate`` loop, just cheaper.
    """
    engine = engine or ComplianceEngine()
    actions = action_corpus(n, seed)
    rulings = engine.evaluate_many(actions)
    return [
        LabeledAction(
            action=action,
            required_process=ruling.required_process,
            needs_process=ruling.needs_process,
        )
        for action, ruling in zip(actions, rulings)
    ]


def process_distribution(
    corpus: list[LabeledAction],
) -> dict[ProcessKind, int]:
    """Histogram of required processes across a labelled corpus."""
    distribution: dict[ProcessKind, int] = {kind: 0 for kind in ProcessKind}
    for item in corpus:
        distribution[item.required_process] += 1
    return distribution


def label_digest(corpus: list[LabeledAction]) -> str:
    """SHA-256 over a labelled corpus's ordered required-process labels.

    Stable across processes and platforms (enum *names*, not hashes), so
    it can be checked into a golden file: any rule or generator drift that
    changes even one label changes the digest.
    """
    joined = ",".join(item.required_process.name for item in corpus)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()
