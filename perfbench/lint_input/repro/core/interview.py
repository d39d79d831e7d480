"""A guided interview that turns plain facts into an engine-ready action.

The paper closes by telling researchers to "follow this table to conduct
their research in computer forensics."  The interview is that table as a
wizard: it asks only the questions relevant to the situation described so
far, assembles an :class:`~repro.core.action.InvestigativeAction`, and
hands back the engine's ruling plus the advisor-style recommendation.

Programmatic use::

    interview = ActionInterview()
    while not interview.finished:
        question = interview.current_question()
        interview.answer(my_answers[question.field])
    ruling = ComplianceEngine().evaluate(interview.build("my technique"))
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, ConsentScope, DataKind, Place, Timing

Answers = dict[str, object]


@dataclasses.dataclass(frozen=True)
class Question:
    """One interview question.

    Attributes:
        field: Stable identifier for the answer slot.
        prompt: Human-readable question text.
        choices: Allowed answers — enum members or the booleans.
        applies: Whether the question is relevant given prior answers.
    """

    field: str
    prompt: str
    choices: tuple[object, ...]
    applies: Callable[[Answers], bool] = lambda answers: True

    def validate(self, value: object) -> None:
        """Reject answers outside the allowed choices."""
        if value not in self.choices:
            raise ValueError(
                f"{self.field}: {value!r} is not one of {self.choices}"
            )


def _is_network_collection(answers: Answers) -> bool:
    return answers.get("timing") is Timing.REAL_TIME


def _at_provider(answers: Answers) -> bool:
    return answers.get("place") is Place.THIRD_PARTY_PROVIDER


def _has_consent(answers: Answers) -> bool:
    scope = answers.get("consent_scope")
    return scope is not None and scope is not ConsentScope.NONE


_BOOL = (True, False)

QUESTIONS: tuple[Question, ...] = (
    Question(
        field="actor",
        prompt="Who performs the acquisition?",
        choices=tuple(Actor),
    ),
    Question(
        field="data_kind",
        prompt="What category of data is acquired?",
        choices=tuple(DataKind),
    ),
    Question(
        field="timing",
        prompt="Is the data acquired in real time or from storage?",
        choices=tuple(Timing),
    ),
    Question(
        field="place",
        prompt="Where does the data live when acquired?",
        choices=tuple(Place),
    ),
    Question(
        field="encrypted",
        prompt="Is the observed channel or data encrypted?",
        choices=_BOOL,
        applies=_is_network_collection,
    ),
    Question(
        field="knowingly_exposed",
        prompt="Was the data knowingly exposed to others or the public?",
        choices=_BOOL,
    ),
    Question(
        field="policy_eliminates_rep",
        prompt="Does a policy/banner eliminate privacy on this network?",
        choices=_BOOL,
        applies=_is_network_collection,
    ),
    Question(
        field="provider_serves_public",
        prompt="Does the provider offer its service to the public?",
        choices=_BOOL,
        applies=_at_provider,
    ),
    Question(
        field="delivered_to_recipient",
        prompt="Has the communication already been delivered/opened?",
        choices=_BOOL,
        applies=_at_provider,
    ),
    Question(
        field="consent_scope",
        prompt="Who, if anyone, consented to the acquisition?",
        choices=tuple(ConsentScope),
    ),
    Question(
        field="consent_covers_target",
        prompt="Does the consent cover the specific data acquired?",
        choices=_BOOL,
        applies=_has_consent,
    ),
    Question(
        field="monitoring_own_network",
        prompt="Is the actor observing a network it owns or operates?",
        choices=_BOOL,
        applies=_is_network_collection,
    ),
    Question(
        field="victim_invited_monitoring",
        prompt="Did an attack victim invite monitoring of the intruder?",
        choices=_BOOL,
        applies=_is_network_collection,
    ),
    Question(
        field="exigent_circumstances",
        prompt="Are there exigent circumstances (destruction, danger)?",
        choices=_BOOL,
    ),
)


class ActionInterview:
    """Sequential wizard assembling an investigative action."""

    def __init__(self) -> None:
        self._answers: Answers = {}
        self._index = 0
        self._advance()

    @property
    def finished(self) -> bool:
        """Whether every applicable question has been answered."""
        return self._index >= len(QUESTIONS)

    @property
    def answers(self) -> Answers:
        """A copy of the answers so far."""
        return dict(self._answers)

    def current_question(self) -> Question:
        """The question awaiting an answer.

        Raises:
            RuntimeError: If the interview is already finished.
        """
        if self.finished:
            raise RuntimeError("interview is finished")
        return QUESTIONS[self._index]

    def answer(self, value: object) -> None:
        """Answer the current question and advance."""
        question = self.current_question()
        question.validate(value)
        self._answers[question.field] = value
        self._index += 1
        self._advance()

    def _advance(self) -> None:
        while (
            self._index < len(QUESTIONS)
            and not QUESTIONS[self._index].applies(self._answers)
        ):
            self._index += 1

    def build(self, description: str) -> InvestigativeAction:
        """Assemble the action from the collected answers.

        Raises:
            RuntimeError: If the interview is not finished.
        """
        if not self.finished:
            raise RuntimeError(
                f"interview incomplete: next question is "
                f"{self.current_question().field!r}"
            )
        answers = self._answers
        context = EnvironmentContext(
            place=answers["place"],
            encrypted=bool(answers.get("encrypted", False)),
            knowingly_exposed=bool(answers.get("knowingly_exposed", False)),
            policy_eliminates_rep=bool(
                answers.get("policy_eliminates_rep", False)
            ),
            provider_serves_public=answers.get("provider_serves_public"),
            delivered_to_recipient=bool(
                answers.get("delivered_to_recipient", False)
            ),
        )
        consent = ConsentFacts(
            scope=answers.get("consent_scope", ConsentScope.NONE),
            covers_target_data=bool(
                answers.get("consent_covers_target", True)
            ),
        )
        doctrine = DoctrineFacts(
            monitoring_own_network=bool(
                answers.get("monitoring_own_network", False)
            ),
            victim_invited_monitoring=bool(
                answers.get("victim_invited_monitoring", False)
            ),
            exigent_circumstances=bool(
                answers.get("exigent_circumstances", False)
            ),
        )
        return InvestigativeAction(
            description=description,
            actor=answers["actor"],
            data_kind=answers["data_kind"],
            timing=answers["timing"],
            context=context,
            consent=consent,
            doctrine=doctrine,
        )


def run_interview(answers: Answers, description: str) -> InvestigativeAction:
    """One-shot convenience: feed a full answer dict through the wizard.

    Only applicable questions are consumed; extra keys are ignored.

    Raises:
        KeyError: If an applicable question has no answer in the dict.
    """
    interview = ActionInterview()
    while not interview.finished:
        question = interview.current_question()
        if question.field not in answers:
            raise KeyError(
                f"missing answer for applicable question "
                f"{question.field!r}"
            )
        interview.answer(answers[question.field])
    return interview.build(description)
