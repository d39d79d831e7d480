"""Rulings: the compliance engine's structured output.

A :class:`Ruling` records the process an action requires, the bodies of law
that impose requirements, every exception that applied, and a full reasoning
trace with citations — the executable analogue of the paper's per-scene
analysis.
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import ExceptionKind, LegalSource, ProcessKind


@dataclasses.dataclass(frozen=True)
class ReasoningStep:
    """One step in a ruling's reasoning trace.

    Attributes:
        source: Which body of law the step applies.
        text: The conclusion the step draws, in plain English.
        authorities: Citation keys into the
            :class:`~repro.core.caselaw.AuthorityRegistry`.
    """

    source: LegalSource
    text: str
    authorities: tuple[str, ...] = ()

    def __str__(self) -> str:
        cites = f" [{', '.join(self.authorities)}]" if self.authorities else ""
        return f"({self.source.value}) {self.text}{cites}"


@dataclasses.dataclass(frozen=True)
class Requirement:
    """A process requirement imposed by one body of law.

    Attributes:
        source: The imposing body of law.
        process: The minimum process that body demands.
        steps: The reasoning that produced the requirement.
    """

    source: LegalSource
    process: ProcessKind
    steps: tuple[ReasoningStep, ...] = ()


@dataclasses.dataclass(frozen=True)
class PrivacyFinding:
    """Outcome of the Katz reasonable-expectation-of-privacy analysis.

    Attributes:
        subjective_expectation: Katz prong one — did the person actually
            expect privacy?
        objectively_reasonable: Katz prong two — is that expectation one
            society recognizes as reasonable?
        steps: Reasoning trace for the finding.
    """

    subjective_expectation: bool
    objectively_reasonable: bool
    steps: tuple[ReasoningStep, ...] = ()

    @property
    def has_rep(self) -> bool:
        """Reasonable expectation of privacy exists only if both prongs hold."""
        return self.subjective_expectation and self.objectively_reasonable


@dataclasses.dataclass(frozen=True)
class AppliedException:
    """An exception that eliminated or reduced a requirement.

    Attributes:
        kind: Which exception applied.
        eliminates: The legal sources whose requirements it removes.
        step: The reasoning step explaining the exception.
    """

    kind: ExceptionKind
    eliminates: frozenset[LegalSource]
    step: ReasoningStep


@dataclasses.dataclass(frozen=True)
class Ruling:
    """The engine's complete answer for one investigative action.

    Attributes:
        required_process: The minimum process the action requires after
            exceptions; :attr:`~repro.core.enums.ProcessKind.NONE` means
            the action is lawful without any process (a "No need" row in
            Table 1).
        requirements: The pre-exception requirements per legal source.
        exceptions: The exceptions that applied.
        privacy: The REP finding underlying the constitutional analysis.
        steps: Flattened reasoning trace, in the order rules fired.
    """

    required_process: ProcessKind
    requirements: tuple[Requirement, ...]
    exceptions: tuple[AppliedException, ...]
    privacy: PrivacyFinding
    steps: tuple[ReasoningStep, ...]

    @property
    def needs_process(self) -> bool:
        """Table-1 style binary answer: does the scene need legal process?"""
        return self.required_process is not ProcessKind.NONE

    @property
    def governing_sources(self) -> tuple[LegalSource, ...]:
        """The sources that imposed (pre-exception) requirements."""
        return tuple(r.source for r in self.requirements)

    def permits(self, held: ProcessKind) -> bool:
        """Whether an investigator holding ``held`` may lawfully proceed."""
        return held.satisfies(self.required_process)

    def explain(self) -> str:
        """Multi-line human-readable explanation of the ruling."""
        lines = [f"Required process: {self.required_process.display_name}"]
        if self.requirements:
            lines.append("Requirements imposed:")
            lines.extend(
                f"  - {r.source.value}: {r.process.display_name}"
                for r in self.requirements
            )
        if self.exceptions:
            lines.append("Exceptions applied:")
            lines.extend(f"  - {e.kind.value}" for e in self.exceptions)
        lines.append("Reasoning:")
        lines.extend(f"  {i + 1}. {step}" for i, step in enumerate(self.steps))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serializable view of the ruling.

        Useful for piping rulings into external tooling; round-trips
        through ``json.dumps`` without custom encoders.
        """
        return {
            "required_process": self.required_process.name,
            "needs_process": self.needs_process,
            "requirements": [
                {
                    "source": requirement.source.value,
                    "process": requirement.process.name,
                }
                for requirement in self.requirements
            ],
            "exceptions": [
                {
                    "kind": exception.kind.value,
                    "eliminates": sorted(
                        source.value for source in exception.eliminates
                    ),
                }
                for exception in self.exceptions
            ],
            "privacy": {
                "subjective_expectation": (
                    self.privacy.subjective_expectation
                ),
                "objectively_reasonable": (
                    self.privacy.objectively_reasonable
                ),
                "has_rep": self.privacy.has_rep,
            },
            "reasoning": [
                {
                    "source": step.source.value,
                    "text": step.text,
                    "authorities": list(step.authorities),
                }
                for step in self.steps
            ],
        }
