"""Static analysis of investigation plans.

The checker walks a :class:`~repro.analysis.plan.Plan` with the
:class:`~repro.core.engine.ComplianceEngine` in pure-ruling mode — no
netsim, no magistrate, no evidence objects — and emits structured
:class:`~repro.analysis.diagnostics.Diagnostic`s.  Three analyses run:

1. **Process shortfall** (per step): the engine's required process for
   the step's action exceeds the strongest instrument the plan declares.
2. **Forfeited exception** (cross-step): a step claims a consent that an
   earlier step's own facts already extinguished — revoked, involuntary,
   or beyond the consenter's authority (Megahed: revocation stops future
   searching).  Judged alone, the later step looks fine; only the plan
   shows the contradiction.
3. **Taint propagation** (cross-step): evidence acquired unlawfully at
   one step poisons every step that uses it downstream (Wong Sun), even
   when the downstream acquisition is impeccable on its own — the case
   the per-action engine structurally cannot see.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    has_errors,
    render_report,
)
from repro.analysis.plan import Plan, PlanStep
from repro.core.engine import ComplianceEngine
from repro.core.enums import LegalSource, ProcessKind
from repro.core.ruling import Requirement, Ruling


@dataclasses.dataclass(frozen=True)
class PlanReport:
    """Everything the static checker concluded about one plan.

    Attributes:
        plan: The plan analyzed.
        rulings: The engine's ruling for each step, in step order.
        diagnostics: All findings, in step order.
    """

    plan: Plan
    rulings: tuple[Ruling, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        """Whether the plan is free of error-severity findings."""
        return not has_errors(list(self.diagnostics))

    @property
    def required_process(self) -> ProcessKind:
        """The strongest process any step of the plan requires."""
        return max(
            (ruling.required_process for ruling in self.rulings),
            default=ProcessKind.NONE,
        )

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"plan: {self.plan.name}"]
        for number, (step, ruling) in enumerate(
            zip(self.plan.steps, self.rulings), 1
        ):
            lines.append(
                f"  step {number}: {step.action.description}"
            )
            lines.append(
                "    requires: "
                f"{ruling.required_process.display_name}"
            )
        lines.append(
            f"plan requires: {self.required_process.display_name}; "
            f"plan declares: {self.plan.held_process.display_name}"
        )
        lines.append(render_report(list(self.diagnostics)))
        return "\n".join(lines)


class PlanAnalyzer:
    """Walks plans with the engine in pure-ruling mode."""

    def __init__(self, engine: ComplianceEngine | None = None) -> None:
        self._engine = engine or ComplianceEngine()

    def analyze(self, plan: Plan) -> PlanReport:
        """Produce the complete static report for one plan."""
        rulings = tuple(
            self._engine.evaluate(step.action) for step in plan.steps
        )
        diagnostics: list[Diagnostic] = []
        unlawful: set[int] = set()

        for number, (step, ruling) in enumerate(
            zip(plan.steps, rulings), 1
        ):
            shortfall = self._check_process(plan, number, ruling)
            if shortfall is not None:
                diagnostics.append(shortfall)
                unlawful.add(number)
            forfeited = self._check_forfeited_consent(plan, number, step)
            if forfeited is not None:
                diagnostics.append(forfeited)
                unlawful.add(number)

        diagnostics.extend(self._propagate_taint(plan, unlawful))
        diagnostics.extend(self._check_overprocess(plan, rulings))
        diagnostics.sort(key=lambda d: (d.step or 0, d.code))
        return PlanReport(
            plan=plan, rulings=rulings, diagnostics=tuple(diagnostics)
        )

    def _check_process(
        self, plan: Plan, number: int, ruling: Ruling
    ) -> Diagnostic | None:
        """Per-step check: does the declared process cover the step?"""
        required = ruling.required_process
        if plan.held_process.satisfies(required):
            return None
        binding = self._binding_requirement(ruling)
        return Diagnostic(
            severity=Severity.ERROR,
            code="PLAN001",
            step=number,
            message=(
                f"step {number} requires a {required.display_name} but "
                f"the plan declares only "
                f"{plan.held_process.display_name}"
            ),
            source=binding.source if binding else None,
            authorities=(
                self._requirement_authorities(binding) if binding else ()
            ),
            fix_it=(
                f"obtain a {required.display_name} before step {number}"
            ),
        )

    @staticmethod
    def _binding_requirement(ruling: Ruling) -> Requirement | None:
        """The surviving requirement that sets the required process."""
        eliminated: frozenset[LegalSource] = frozenset()
        for exception in ruling.exceptions:
            eliminated = eliminated | exception.eliminates
        candidates = [
            requirement
            for requirement in ruling.requirements
            if requirement.source not in eliminated
            and requirement.process is ruling.required_process
        ]
        return candidates[0] if candidates else None

    @staticmethod
    def _requirement_authorities(
        requirement: Requirement,
    ) -> tuple[str, ...]:
        """Flattened, de-duplicated citations behind a requirement."""
        seen: list[str] = []
        for step in requirement.steps:
            for key in step.authorities:
                if key not in seen:
                    seen.append(key)
        return tuple(seen)

    @staticmethod
    def _check_forfeited_consent(
        plan: Plan, number: int, step: PlanStep
    ) -> Diagnostic | None:
        """Cross-step check: consent already extinguished upstream."""
        consent = step.action.consent
        if not consent.effective():
            return None
        for earlier_number in range(1, number):
            earlier = plan.steps[earlier_number - 1].action.consent
            if earlier.scope is not consent.scope:
                continue
            if earlier.revoked:
                reason = "revoked"
            elif not earlier.voluntary:
                reason = "found involuntary"
            elif earlier.exceeds_authority:
                reason = "held to exceed the consenter's authority"
            else:
                continue
            return Diagnostic(
                severity=Severity.ERROR,
                code="PLAN002",
                step=number,
                source=LegalSource.DOCTRINE,
                authorities=("megahed", "matlock"),
                message=(
                    f"step {number} claims consent from "
                    f"{consent.scope.value!r}, but that consent was "
                    f"{reason} as of step {earlier_number}; a later "
                    "step cannot revive it"
                ),
                fix_it=(
                    f"re-obtain valid consent before step {number}, or "
                    f"obtain a search warrant instead"
                ),
            )
        return None

    @staticmethod
    def _propagate_taint(
        plan: Plan, unlawful: set[int]
    ) -> list[Diagnostic]:
        """Fruit-of-the-poisonous-tree propagation along evidence edges."""
        tainted: dict[int, int] = {}  # step -> originating unlawful step
        diagnostics: list[Diagnostic] = []
        for number, step in enumerate(plan.steps, 1):
            if number in unlawful:
                tainted[number] = number
                continue
            poisoned_parents = [
                used for used in step.uses if used in tainted
            ]
            if not poisoned_parents:
                continue
            origin = tainted[poisoned_parents[0]]
            tainted[number] = origin
            diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="PLAN003",
                    step=number,
                    source=LegalSource.DOCTRINE,
                    authorities=("wong_sun", "nix_v_williams"),
                    message=(
                        f"step {number} is lawful in isolation but "
                        f"consumes evidence from step "
                        f"{poisoned_parents[0]}, which traces to the "
                        f"unlawful acquisition at step {origin}; its "
                        "product would be suppressed as fruit of the "
                        "poisonous tree"
                    ),
                    fix_it=(
                        f"cure step {origin} (obtain the process it "
                        "needs) or establish an independent source "
                        f"for the facts step {number} relies on"
                    ),
                )
            )
        return diagnostics

    @staticmethod
    def _check_overprocess(
        plan: Plan, rulings: tuple[Ruling, ...]
    ) -> list[Diagnostic]:
        """Note when the plan declares more process than any step needs."""
        strongest_needed = max(
            (ruling.required_process for ruling in rulings),
            default=ProcessKind.NONE,
        )
        if plan.held_process <= strongest_needed:
            return []
        return [
            Diagnostic(
                severity=Severity.NOTE,
                code="PLAN004",
                message=(
                    f"plan declares a "
                    f"{plan.held_process.display_name} but no step "
                    f"requires more than a "
                    f"{strongest_needed.display_name}; stronger "
                    "process is lawful but costlier to obtain"
                ),
            )
        ]
