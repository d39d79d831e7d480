"""The declarative workflow DSL: typed steps wired into a DAG.

A :class:`WorkflowSpec` is pure data about *what* an investigation will
do: each :class:`StepSpec` declares the artifact kinds it consumes and
produces (the DAG edges), its retry policy, its sim-time timeout, its
degradation policy, and — for acquisition steps — the
:class:`~repro.core.action.InvestigativeAction` that is its legal basis.
Because the spec is declarative, :meth:`WorkflowSpec.to_plan` can
compile the gated steps into the :mod:`repro.analysis` plan IR and run
the :class:`~repro.analysis.plan_checker.PlanAnalyzer` over them *before
anything executes* — an unlawful workflow is rejected at submission
time, not discovered at the suppression hearing.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable

from repro.analysis.plan import Plan, PlanStep
from repro.core.action import InvestigativeAction
from repro.core.enums import ProcessKind
from repro.faults.retry import RetryPolicy
from repro.storage.hashing import sha256_hex
from repro.workflow.artifacts import Artifact
from repro.workflow.context import StepContext


class WorkflowDefinitionError(Exception):
    """The workflow spec itself is malformed (not a runtime failure)."""


class OnFailure(enum.Enum):
    """What the engine does when a step exhausts its retries.

    The three policies are the paper's three postures toward a failed
    procedural step: keep trying within bounds, degrade to a
    partial-confidence result, or treat the failure as fatal to the
    evidence and suppress everything downstream.
    """

    RETRY_THEN_ABORT = "retry-then-abort"
    SKIP_WITH_PARTIAL_CONFIDENCE = "skip-with-partial-confidence"
    ABORT_AND_SUPPRESS = "abort-and-suppress"


@dataclasses.dataclass(frozen=True)
class StepSpec:
    """One typed step of a workflow.

    Attributes:
        step_id: Unique id within the workflow.
        title: Human-readable step name for reports.
        run: The step body; receives a
            :class:`~repro.workflow.context.StepContext` and returns the
            declared output artifacts.
        inputs: Artifact kinds this step consumes — each must be
            produced by an earlier step.
        outputs: Artifact kinds this step produces — each unique across
            the workflow.
        legal_action: The declared legal basis, for acquisition steps;
            ``None`` marks a pure-analysis step that touches nothing new.
        gate: The process the step's body will demand via
            ``ctx.require_process`` — recorded so the spec digest
            captures the declared gate.
        retry: Backoff policy for failed attempts.
        timeout: Sim-seconds one attempt may consume before it counts as
            failed.
        sim_cost: Sim-seconds the engine charges per attempt.
        on_failure: Degradation policy once retries are exhausted.
    """

    step_id: str
    title: str
    run: Callable[[StepContext], tuple[Artifact, ...]]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    legal_action: InvestigativeAction | None = None
    gate: ProcessKind = ProcessKind.NONE
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    timeout: float = 3600.0
    sim_cost: float = 1.0
    on_failure: OnFailure = OnFailure.RETRY_THEN_ABORT

    def __post_init__(self) -> None:
        if not self.step_id:
            raise WorkflowDefinitionError("step_id must be non-empty")
        if not self.outputs:
            raise WorkflowDefinitionError(
                f"step {self.step_id!r} declares no outputs"
            )
        if self.timeout <= 0:
            raise WorkflowDefinitionError(
                f"step {self.step_id!r} timeout must be positive"
            )
        if self.sim_cost < 0:
            raise WorkflowDefinitionError(
                f"step {self.step_id!r} sim_cost must be >= 0"
            )
        if len(set(self.outputs)) != len(self.outputs):
            raise WorkflowDefinitionError(
                f"step {self.step_id!r} declares duplicate outputs"
            )

    @property
    def gated(self) -> bool:
        """Whether this step performs a legally gated acquisition."""
        return self.legal_action is not None

    def describe(self) -> str:
        """A stable one-line description for the spec digest."""
        retry = self.retry
        legal = (
            self.legal_action.description if self.legal_action else "-"
        )
        return (
            f"step {self.step_id}: in={','.join(self.inputs) or '-'} "
            f"out={','.join(self.outputs)} gate={self.gate.name} "
            f"retry=({retry.max_attempts},{retry.base_delay},"
            f"{retry.multiplier},{retry.max_delay},{retry.jitter},"
            f"{retry.jitter_seed},{retry.max_total_backoff}) "
            f"timeout={self.timeout} cost={self.sim_cost} "
            f"on_failure={self.on_failure.value} legal={legal}"
        )


@dataclasses.dataclass(frozen=True)
class WorkflowSpec:
    """An ordered DAG of typed steps plus declared instruments.

    Steps are declared in topological order: every input kind must be
    produced by an earlier step.  ``instruments`` are the legal-process
    instruments the investigator declares they will hold for the whole
    run — the same contract as :class:`~repro.analysis.plan.Plan`.
    """

    name: str
    steps: tuple[StepSpec, ...]
    instruments: tuple[ProcessKind, ...] = ()
    version: str = "1"

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowDefinitionError("workflow name must be non-empty")
        if not self.steps:
            raise WorkflowDefinitionError("workflow has no steps")
        seen_ids: set[str] = set()
        producers: dict[str, str] = {}
        for step in self.steps:
            if step.step_id in seen_ids:
                raise WorkflowDefinitionError(
                    f"duplicate step id: {step.step_id!r}"
                )
            seen_ids.add(step.step_id)
            for kind in step.inputs:
                if kind not in producers:
                    raise WorkflowDefinitionError(
                        f"step {step.step_id!r} input {kind!r} is not "
                        f"produced by an earlier step"
                    )
            for kind in step.outputs:
                if kind in producers:
                    raise WorkflowDefinitionError(
                        f"artifact kind {kind!r} produced by both "
                        f"{producers[kind]!r} and {step.step_id!r}"
                    )
                producers[kind] = step.step_id
        for step in self.steps:
            if step.gated and not self.held_process.satisfies(step.gate):
                # Declared instruments visibly below a declared gate is a
                # definition error; a *legal* shortfall (gate below what
                # the law actually requires) is the PlanAnalyzer's job.
                raise WorkflowDefinitionError(
                    f"step {step.step_id!r} gates on {step.gate.name} but "
                    f"the workflow declares only "
                    f"{self.held_process.display_name}"
                )

    @property
    def held_process(self) -> ProcessKind:
        """The strongest declared instrument."""
        return max(self.instruments, default=ProcessKind.NONE)

    def step(self, step_id: str) -> StepSpec:
        """Look one step up by id.

        Raises:
            KeyError: If no step has this id.
        """
        for candidate in self.steps:
            if candidate.step_id == step_id:
                return candidate
        raise KeyError(f"no step {step_id!r} in workflow {self.name!r}")

    def producers(self) -> dict[str, str]:
        """Artifact kind → producing step id."""
        return {
            kind: step.step_id
            for step in self.steps
            for kind in step.outputs
        }

    def dependencies(self, step_id: str) -> tuple[str, ...]:
        """Ids of the steps whose outputs ``step_id`` consumes directly."""
        producers = self.producers()
        step = self.step(step_id)
        seen: list[str] = []
        for kind in step.inputs:
            producer = producers[kind]
            if producer not in seen:
                seen.append(producer)
        return tuple(seen)

    def transitive_dependencies(self, step_id: str) -> tuple[str, ...]:
        """All upstream step ids, in declaration order."""
        upstream: set[str] = set()
        frontier = list(self.dependencies(step_id))
        while frontier:
            current = frontier.pop()
            if current in upstream:
                continue
            upstream.add(current)
            frontier.extend(self.dependencies(current))
        return tuple(
            step.step_id
            for step in self.steps
            if step.step_id in upstream
        )

    def gated_steps(self) -> tuple[StepSpec, ...]:
        """The steps with a declared legal basis, in order."""
        return tuple(step for step in self.steps if step.gated)

    def to_plan(self) -> Plan:
        """Compile the gated steps into the static checker's plan IR.

        Evidence edges follow the artifact DAG: a gated step ``uses``
        every gated step among its transitive dependencies, so taint
        from an unlawful upstream acquisition propagates exactly as the
        artifacts do.
        """
        gated = self.gated_steps()
        numbers = {
            step.step_id: number for number, step in enumerate(gated, 1)
        }
        plan_steps = []
        for step in gated:
            action = step.legal_action
            assert action is not None  # gated_steps() guarantees it
            uses = tuple(
                numbers[upstream]
                for upstream in self.transitive_dependencies(step.step_id)
                if upstream in numbers
            )
            plan_steps.append(
                PlanStep(action=action, uses=uses, note=step.step_id)
            )
        return Plan(
            name=f"workflow:{self.name}",
            steps=tuple(plan_steps),
            instruments=self.instruments,
        )

    def describe(self) -> str:
        """A stable multi-line description of the whole workflow."""
        lines = [
            f"workflow {self.name} v{self.version}",
            "instruments: "
            + (
                ",".join(kind.name for kind in self.instruments)
                or "none"
            ),
        ]
        lines.extend(step.describe() for step in self.steps)
        return "\n".join(lines)

    def spec_digest(self) -> str:
        """SHA-256 of the description — the journal's compatibility key.

        A resumed run refuses a journal whose digest differs: replaying
        half of one workflow under the structure of another can only
        corrupt evidence.
        """
        return sha256_hex(self.describe())
