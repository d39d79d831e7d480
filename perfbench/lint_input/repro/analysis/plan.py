"""The investigation-plan IR the static checker walks.

A :class:`Plan` is an ordered sequence of :class:`PlanStep`s — each one
:class:`~repro.core.action.InvestigativeAction` plus the evidence edges
to earlier steps — together with the legal-process instruments the
investigator declares they will hold.  Plans are pure data: building one
never touches the netsim, so a plan can be analyzed (and rejected)
before anything runs.

Plans come from three places:

* :func:`plan_from_technique` — the acquisitions a
  :class:`~repro.techniques.base.Technique` declares, in order;
* :func:`plan_from_scenario` — a single Table 1 scene as a one-step plan;
* hand-written :class:`Plan` literals, for multi-step investigations
  with cross-step structure the per-action engine cannot see.
"""

from __future__ import annotations

import dataclasses

from repro.core.action import ConsentFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProcessKind,
    Timing,
)
from repro.core.scenarios import Scenario, build_table1
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class PlanStep:
    """One step of an investigation plan.

    Attributes:
        action: The acquisition this step performs.
        uses: 1-based numbers of earlier steps whose *evidence* this step
            consumes (e.g. a subpoena naming an IP address learned in
            step 1).  These edges drive fruit-of-the-poisonous-tree
            propagation.
        note: Optional free-text annotation shown in reports.
    """

    action: InvestigativeAction
    uses: tuple[int, ...] = ()
    note: str = ""


@dataclasses.dataclass(frozen=True)
class Plan:
    """An ordered investigation plan plus declared instruments.

    Attributes:
        name: Human-readable plan name.
        steps: The ordered acquisitions.
        instruments: The legal-process instruments the investigator
            declares they will hold while executing the plan.  An empty
            tuple means the plan claims to need no process at all.
    """

    name: str
    steps: tuple[PlanStep, ...]
    instruments: tuple[ProcessKind, ...] = ()

    def __post_init__(self) -> None:
        for number, step in enumerate(self.steps, 1):
            for used in step.uses:
                if not 1 <= used < number:
                    raise ValueError(
                        f"step {number} of plan {self.name!r} uses "
                        f"step {used}, which is not an earlier step"
                    )

    @property
    def held_process(self) -> ProcessKind:
        """The strongest instrument the plan declares."""
        return max(self.instruments, default=ProcessKind.NONE)

    def step_number(self, step: PlanStep) -> int:
        """The 1-based number of a step within this plan."""
        return self.steps.index(step) + 1


def plan_from_technique(
    technique: Technique,
    instruments: tuple[ProcessKind, ...] = (),
) -> Plan:
    """Lift a technique's declared acquisitions into a linear plan.

    Later acquisitions are assumed to build on earlier ones — a
    technique is one coherent procedure, so each step records an
    evidence edge to its predecessor.
    """
    actions = technique.required_actions()
    steps = tuple(
        PlanStep(action=action, uses=(index,) if index else ())
        for index, action in enumerate(actions)
    )
    return Plan(
        name=technique.name, steps=steps, instruments=instruments
    )


def plan_from_scenario(
    scenario: Scenario,
    instruments: tuple[ProcessKind, ...] = (),
) -> Plan:
    """A Table 1 scene as a one-step plan."""
    return Plan(
        name=f"Table 1 scene {scenario.number}",
        steps=(PlanStep(action=scenario.action),),
        instruments=instruments,
    )


def plan_from_scene_number(
    number: int, instruments: tuple[ProcessKind, ...] = ()
) -> Plan:
    """A Table 1 scene, by row number, as a one-step plan."""
    for scenario in build_table1():
        if scenario.number == number:
            return plan_from_scenario(scenario, instruments)
    raise KeyError(f"no Table 1 scene {number}; scenes are 1-20")


def tainted_downstream_plan() -> Plan:
    """The demo plan only cross-step analysis can reject.

    Step 1 intercepts content in real time with no process — plainly
    unlawful.  Step 2 subpoenas subscriber records for the IP address
    *learned in step 1*; judged alone, a subpoena is exactly what the
    SCA requires for subscriber information, so the per-action engine
    passes it.  The plan checker sees the evidence edge: step 2 is fruit
    of step 1's poisonous tree (Wong Sun) and would be suppressed as
    derivative evidence.
    """
    interception = InvestigativeAction(
        description=(
            "intercept the suspect's traffic content in transit, "
            "without any process, to learn the originating IP"
        ),
        actor=Actor.GOVERNMENT,
        data_kind=DataKind.CONTENT,
        timing=Timing.REAL_TIME,
        context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
    )
    subpoena_records = InvestigativeAction(
        description=(
            "subpoena the ISP for subscriber information matching the "
            "IP address learned from the interception"
        ),
        actor=Actor.GOVERNMENT,
        data_kind=DataKind.SUBSCRIBER_INFO,
        timing=Timing.STORED,
        context=EnvironmentContext(place=Place.THIRD_PARTY_PROVIDER),
    )
    return Plan(
        name="warrantless interception feeding a subpoena",
        steps=(
            PlanStep(action=interception, note="no process obtained"),
            PlanStep(
                action=subpoena_records,
                uses=(1,),
                note="names the IP from step 1",
            ),
        ),
        instruments=(ProcessKind.SUBPOENA,),
    )


def forfeited_consent_plan() -> Plan:
    """A plan claiming a consent an earlier step already extinguished.

    Step 1's facts record that the target revoked consent; step 2
    nevertheless claims the same consent for a further search.  Each
    action judged alone is internally consistent, but across the plan
    the claim in step 2 was forfeited at step 1 (Megahed: revocation
    stops future searching).
    """
    first_search = InvestigativeAction(
        description=(
            "search the target's laptop under consent, which the "
            "target revokes mid-search"
        ),
        actor=Actor.GOVERNMENT,
        data_kind=DataKind.CONTENT,
        timing=Timing.STORED,
        context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
        consent=ConsentFacts(scope=ConsentScope.TARGET, revoked=True),
    )
    second_search = InvestigativeAction(
        description=(
            "return the next day and search the same laptop again, "
            "still relying on the original consent"
        ),
        actor=Actor.GOVERNMENT,
        data_kind=DataKind.CONTENT,
        timing=Timing.STORED,
        context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
        consent=ConsentFacts(scope=ConsentScope.TARGET),
    )
    return Plan(
        name="search on a consent revoked one step earlier",
        steps=(
            PlanStep(action=first_search, note="consent revoked here"),
            PlanStep(
                action=second_search,
                uses=(1,),
                note="claims the revoked consent",
            ),
        ),
    )


#: Named demo plans exercised by the CLI and the test suite.
DEMO_PLANS = {
    "tainted-downstream": tainted_downstream_plan,
    "forfeited-consent": forfeited_consent_plan,
}
