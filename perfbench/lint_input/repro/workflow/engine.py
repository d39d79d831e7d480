"""The workflow engine: gate, execute, journal, resume.

Execution order is the spec's declaration order (already topological),
but every transition is mediated by the journal:

1. **Gate.**  The gated steps are compiled to the plan IR and the
   :class:`~repro.analysis.plan_checker.PlanAnalyzer` must pass them
   *before* the first record is written.  An unlawful workflow never
   touches the substrate.
2. **Execute.**  Each step runs under its retry policy with backoff in
   simulated time, charged against its sim-time timeout.  Failures
   degrade per the declared policy; a legal violation raised by the
   in-step gate (:class:`~repro.core.errors.InsufficientProcess`)
   always aborts and suppresses, whatever the policy says.
3. **Journal.**  One record per step boundary, durably written before
   the next step starts: outputs (content included), custody deltas,
   obs span ids, and the fault injector's cumulative draw counts.
4. **Resume.**  A fresh process reloads the journal, verifies the spec
   digest / seed / subject fingerprint, rehydrates artifacts and the
   custody chain, fast-forwards a fresh injector to the recorded RNG
   stream positions, and re-enters the loop at the first step without a
   record — producing bytes identical to a run that never crashed.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import TYPE_CHECKING

from repro import obs
from repro.analysis.plan_checker import PlanAnalyzer, PlanReport
from repro.core.errors import InsufficientProcess
from repro.evidence.custody import ChainOfCustody
from repro.evidence.items import EvidenceItem
from repro.faults.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.storage.hashing import sha256_hex
from repro.workflow.artifacts import ArtifactStore
from repro.workflow.context import (
    SimClock,
    StepContext,
    StepFailure,
    Subject,
    step_rng_seed,
)
from repro.workflow.journal import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    RunStart,
    artifact_from_record,
    artifact_to_record,
    custody_from_record,
    custody_to_record,
    load_journal,
)
from repro.workflow.report import (
    RunResult,
    StepOutcome,
    StepStatus,
    custody_digest,
    render_report,
)
from repro.workflow.spec import OnFailure, StepSpec, WorkflowSpec

if TYPE_CHECKING:  # annotation-only; workflow must not hard-import ledger
    from repro.ledger import Ledger


class WorkflowLegalityError(Exception):
    """The static gate rejected the workflow before execution.

    Attributes:
        report: The failing plan report, for rendering.
    """

    def __init__(self, report: PlanReport) -> None:
        self.report = report
        findings = "; ".join(
            f"{diagnostic.code}: {diagnostic.message}"
            for diagnostic in report.diagnostics
        )
        super().__init__(
            f"workflow rejected by static legality analysis: {findings}"
        )


class StepTimeout(StepFailure):
    """One attempt exceeded the step's declared sim-time budget."""


#: Exceptions the retry/degradation machinery handles; anything else is
#: a programming error and propagates.
_RETRYABLE = (FaultError, StepFailure)


@dataclasses.dataclass
class _RunState:
    """Mutable state threaded through one engine run."""

    clock: SimClock
    custody: ChainOfCustody
    artifacts: ArtifactStore
    outcomes: list[StepOutcome]
    aborted: bool = False
    suppressed: bool = False
    suppression_reason: str = ""


class WorkflowEngine:
    """Runs one :class:`~repro.workflow.spec.WorkflowSpec` to completion."""

    def __init__(
        self,
        spec: WorkflowSpec,
        custodian: str = "workflow-engine",
        ledger: "Ledger | None" = None,
    ) -> None:
        self.spec = spec
        self.custodian = custodian
        self.ledger = ledger
        self._analyzer = PlanAnalyzer()

    # -- public API --------------------------------------------------------------

    def check_legality(self) -> PlanReport:
        """Run the static gate; raises on an unlawful workflow.

        Raises:
            WorkflowLegalityError: If the plan analyzer finds an
                error-severity problem with the gated steps.
        """
        report = self._analyzer.analyze(self.spec.to_plan())
        if not report.ok:
            raise WorkflowLegalityError(report)
        return report

    def run(
        self,
        subject: Subject,
        seed: int = 0,
        journal_path: Path | None = None,
        injector: FaultInjector | None = None,
        crash_after: int | None = None,
    ) -> RunResult:
        """Execute the workflow from scratch, journaling every boundary.

        Raises:
            WorkflowLegalityError: If the static gate rejects the spec.
            WorkflowCrash: If an injected crash point fires.
        """
        return self._execute(
            subject,
            seed,
            journal_path,
            injector,
            crash_after,
            prior_records=None,
        )

    def resume(
        self,
        subject: Subject,
        seed: int = 0,
        journal_path: Path | None = None,
        injector: FaultInjector | None = None,
        crash_after: int | None = None,
    ) -> RunResult:
        """Resume an interrupted run from its journal.

        The caller rebuilds the subject (and a *fresh* injector from the
        same fault plan) exactly as for the original run; the journal
        supplies everything else.

        Raises:
            JournalError: If the journal is missing, corrupt, or does
                not match this workflow/seed/subject.
        """
        if journal_path is None:
            raise JournalError("resume requires a journal path")
        records = load_journal(journal_path)
        if not records:
            raise JournalError(f"journal {journal_path} is empty")
        return self._execute(
            subject,
            seed,
            journal_path,
            injector,
            crash_after,
            prior_records=records,
        )

    # -- internals ---------------------------------------------------------------

    def _execute(
        self,
        subject: Subject,
        seed: int,
        journal_path: Path | None,
        injector: FaultInjector | None,
        crash_after: int | None,
        prior_records: list[dict[str, object]] | None,
    ) -> RunResult:
        self.check_legality()
        resumed = prior_records is not None

        item = EvidenceItem(
            description=subject.description,
            content=subject.fingerprint,
            acquired_by=self.custodian,
            acquired_at=0.0,
            action=subject.action,
            process_held=self.spec.held_process,
        )
        state = _RunState(
            clock=SimClock(),
            custody=ChainOfCustody(item, custodian=self.custodian, time=0.0),
            artifacts=ArtifactStore(),
            outcomes=[],
        )

        done: dict[str, StepOutcome] = {}
        completed_marker: dict[str, object] | None = None
        existing = 0
        if prior_records is not None:
            existing = len(prior_records)
            completed_marker = self._restore(
                prior_records, subject, seed, injector, state, done
            )
        journal = Journal(journal_path, crash_after, existing=existing)

        with obs.span(
            "workflow.run",
            sim_time=state.clock.now,
            workflow=self.spec.name,
            subject=subject.subject_id,
            resumed=resumed,
        ), obs.audit(
            workflow=self.spec.name,
            subject=subject.subject_id,
            custodian=self.custodian,
        ):
            if prior_records is None:
                journal.append(
                    self._run_start_record(subject, seed, injector, state)
                )
            # When the journaled run had already completed, every step is
            # restored and this replays the loop without journaling.
            self._run_steps(subject, seed, injector, state, done, journal)
            report_text = self._render(subject, state)
            if completed_marker is None:
                journal.append(
                    self._run_complete_record(state, report_text)
                )
            else:
                self._check_complete_marker(
                    completed_marker, state, report_text
                )
            if self.ledger is not None:
                self._persist_run(subject, seed, state)

        return RunResult(
            workflow=self.spec.name,
            subject_id=subject.subject_id,
            status="aborted" if state.aborted else "completed",
            outcomes=tuple(state.outcomes),
            artifacts=state.artifacts,
            custody=state.custody,
            finished_at=state.clock.now,
            suppressed=state.suppressed,
            suppression_reason=state.suppression_reason,
            report_text=report_text,
            journal_path=journal_path,
            resumed=resumed,
        )

    def _run_steps(
        self,
        subject: Subject,
        seed: int,
        injector: FaultInjector | None,
        state: _RunState,
        done: dict[str, StepOutcome],
        journal: Journal,
    ) -> None:
        for step in self.spec.steps:
            if step.step_id in done:
                state.outcomes.append(done[step.step_id])
                continue
            if state.aborted:
                state.outcomes.append(
                    StepOutcome(
                        step_id=step.step_id,
                        status=StepStatus.NOT_RUN,
                        detail="run aborted upstream",
                        started_at=state.clock.now,
                        finished_at=state.clock.now,
                    )
                )
                continue
            missing = [
                kind
                for kind in step.inputs
                if not state.artifacts.has(kind)
            ]
            if missing:
                outcome = StepOutcome(
                    step_id=step.step_id,
                    status=StepStatus.SKIPPED,
                    detail="upstream unavailable: " + ",".join(missing),
                    started_at=state.clock.now,
                    finished_at=state.clock.now,
                )
                state.outcomes.append(outcome)
                journal.append(
                    self._step_record(
                        step,
                        outcome,
                        (),
                        injector,
                        (),
                        input_hashes=self._input_hashes(step, state),
                    )
                )
                continue
            self._run_one_step(subject, seed, injector, state, step, journal)

    def _run_one_step(
        self,
        subject: Subject,
        seed: int,
        injector: FaultInjector | None,
        state: _RunState,
        step: StepSpec,
        journal: Journal,
    ) -> None:
        started_at = state.clock.now
        custody_before = len(state.custody.entries)
        log_before = len(injector.log) if injector is not None else 0
        intervals = step.retry.schedule()
        span_ids: list[int] = []
        outcome: StepOutcome | None = None

        for attempt in range(1, step.retry.max_attempts + 1):
            attempt_started = state.clock.now
            context = StepContext(
                step_id=step.step_id,
                subject=subject,
                clock=state.clock,
                rng=random.Random(step_rng_seed(seed, step.step_id, attempt)),
                inputs={
                    kind: state.artifacts.get(kind) for kind in step.inputs
                },
                held_process=self.spec.held_process,
                attempt=attempt,
                injector=injector,
            )
            error: Exception | None = None
            outputs = ()
            span = obs.span(
                "workflow.step",
                sim_time=state.clock.now,
                step=step.step_id,
                attempt=attempt,
            )
            try:
                with span, obs.audit(step=step.step_id, attempt=attempt):
                    outputs = step.run(context)
                    state.clock.advance(step.sim_cost)
                    if state.clock.now - attempt_started > step.timeout:
                        raise StepTimeout(
                            f"attempt took "
                            f"{state.clock.now - attempt_started:.6f}s of "
                            f"sim time (budget {step.timeout:.6f}s)"
                        )
            except InsufficientProcess as violation:
                state.clock.advance(step.sim_cost)
                self._collect_span_id(span, span_ids)
                outcome = self._legal_abort(state, step, attempt, violation)
                break
            except _RETRYABLE as failure:
                state.clock.advance(step.sim_cost)
                error = failure
            self._collect_span_id(span, span_ids)

            if error is None:
                for event in context._custody_events:
                    state.custody.record_event(event, time=state.clock.now)
                outcome = self._complete(state, step, attempt, outputs)
                break
            if (
                attempt < step.retry.max_attempts
                and step.on_failure is not OnFailure.ABORT_AND_SUPPRESS
            ):
                state.custody.record_event(
                    f"step {step.step_id} attempt {attempt} failed "
                    f"({error}); retrying after backoff",
                    time=state.clock.now,
                )
                state.clock.advance(intervals[attempt - 1])
                continue
            outcome = self._exhausted(state, step, attempt, error)
            break

        assert outcome is not None  # every loop exit assigns it
        outcome = dataclasses.replace(outcome, started_at=started_at)
        state.outcomes.append(outcome)
        custody_delta = state.custody.entries[custody_before:]
        fault_log_delta: tuple[dict[str, object], ...] = ()
        if injector is not None:
            fault_log_delta = tuple(
                record.to_dict() for record in injector.log[log_before:]
            )
        journal.append(
            self._step_record(
                step,
                outcome,
                custody_delta,
                injector,
                fault_log_delta,
                input_hashes=self._input_hashes(step, state),
                span_ids=tuple(span_ids),
            )
        )

    @staticmethod
    def _input_hashes(
        step: StepSpec, state: _RunState
    ) -> tuple[tuple[str, str], ...]:
        return tuple(
            (
                kind,
                state.artifacts.get(kind).sha256
                if state.artifacts.has(kind)
                else "",
            )
            for kind in step.inputs
        )

    @staticmethod
    def _collect_span_id(span: object, span_ids: list[int]) -> None:
        span_id = getattr(span, "span_id", None)
        if isinstance(span_id, int):
            span_ids.append(span_id)

    def _complete(
        self,
        state: _RunState,
        step: StepSpec,
        attempt: int,
        outputs: tuple,
    ) -> StepOutcome:
        produced = {artifact.kind for artifact in outputs}
        if produced != set(step.outputs):
            raise JournalError(
                f"step {step.step_id!r} produced {sorted(produced)} but "
                f"declared {sorted(step.outputs)}"
            )
        ordered = tuple(
            next(a for a in outputs if a.kind == kind)
            for kind in step.outputs
        )
        for artifact in ordered:
            state.artifacts.add(artifact)
        summary = ",".join(
            f"{artifact.kind}={artifact.sha256[:12]}" for artifact in ordered
        )
        state.custody.record_event(
            f"step {step.step_id} completed (attempt {attempt}); "
            f"produced {summary}",
            time=state.clock.now,
        )
        return StepOutcome(
            step_id=step.step_id,
            status=StepStatus.COMPLETED,
            attempts=attempt,
            finished_at=state.clock.now,
            outputs=ordered,
        )

    def _exhausted(
        self,
        state: _RunState,
        step: StepSpec,
        attempt: int,
        error: Exception,
    ) -> StepOutcome:
        if step.on_failure is OnFailure.SKIP_WITH_PARTIAL_CONFIDENCE:
            detail = f"degraded after {attempt} attempts: {error}"
            state.custody.record_event(
                f"step {step.step_id} skipped with partial confidence "
                f"({detail})",
                time=state.clock.now,
            )
            return StepOutcome(
                step_id=step.step_id,
                status=StepStatus.SKIPPED,
                attempts=attempt,
                detail=detail,
                finished_at=state.clock.now,
            )
        reason = (
            f"step {step.step_id} failed after {attempt} attempts: {error}"
        )
        state.aborted = True
        state.suppressed = True
        state.suppression_reason = reason
        state.custody.record_event(
            f"step {step.step_id} failed; run aborted and evidence "
            f"suppressed ({reason})",
            time=state.clock.now,
        )
        return StepOutcome(
            step_id=step.step_id,
            status=StepStatus.FAILED,
            attempts=attempt,
            detail=reason,
            finished_at=state.clock.now,
        )

    def _legal_abort(
        self,
        state: _RunState,
        step: StepSpec,
        attempt: int,
        violation: InsufficientProcess,
    ) -> StepOutcome:
        """A legal violation is never retried: abort and suppress."""
        reason = f"legal violation in step {step.step_id}: {violation}"
        state.aborted = True
        state.suppressed = True
        state.suppression_reason = reason
        state.custody.record_event(
            f"step {step.step_id} committed a legal violation; run "
            f"aborted and evidence suppressed ({reason})",
            time=state.clock.now,
        )
        return StepOutcome(
            step_id=step.step_id,
            status=StepStatus.FAILED,
            attempts=attempt,
            detail=reason,
            finished_at=state.clock.now,
        )

    def _persist_run(
        self, subject: Subject, seed: int, state: _RunState
    ) -> None:
        """Persist custody and the suppression verdict to the ledger.

        Runs at the same boundary the run-complete journal record is
        written (or re-verified on resume), so the ledger and journal
        always agree on what the run produced.  Keys are deterministic
        in (workflow, subject, seed): resuming or replaying a run
        upserts rather than duplicating.
        """
        ledger = self.ledger
        assert ledger is not None
        run_key = f"workflow/{self.spec.name}/{subject.subject_id}/seed-{seed}"
        ledger.record_custody(f"{run_key}/custody", state.custody)
        ledger.record_suppression(
            evidence_key=f"{run_key}/evidence",
            fingerprint=subject.action.fingerprint(),
            outcome="suppressed" if state.suppressed else "admissible",
            reason=state.suppression_reason,
            run_label=run_key,
        )
        if obs.OBS.enabled:
            obs.OBS.registry.counter(
                "repro_ledger_workflow_writes_total",
                "Workflow runs persisted to a ledger by the engine.",
            ).inc()

    # -- journal records ---------------------------------------------------------

    def _run_start_record(
        self,
        subject: Subject,
        seed: int,
        injector: FaultInjector | None,
        state: _RunState,
    ) -> dict[str, object]:
        return {
            "kind": "run-start",
            "journal_version": JOURNAL_VERSION,
            "workflow": self.spec.name,
            "spec_digest": self.spec.spec_digest(),
            "seed": seed,
            "subject_id": subject.subject_id,
            "subject_fingerprint_sha256": sha256_hex(subject.fingerprint),
            "fault_plan_digest": (
                sha256_hex(injector.plan.describe())
                if injector is not None
                else ""
            ),
            "held_process": int(self.spec.held_process),
            "started_at": 0.0,
            "custody": [
                custody_to_record(entry) for entry in state.custody.entries
            ],
        }

    def _step_record(
        self,
        step: StepSpec,
        outcome: StepOutcome,
        custody_delta: tuple,
        injector: FaultInjector | None,
        fault_log_delta: tuple[dict[str, object], ...],
        input_hashes: tuple[tuple[str, str], ...] = (),
        span_ids: tuple[int, ...] = (),
    ) -> dict[str, object]:
        return {
            "kind": "step",
            "step_id": step.step_id,
            "status": outcome.status.value,
            "attempts": outcome.attempts,
            "detail": outcome.detail,
            "started_at": outcome.started_at,
            "finished_at": outcome.finished_at,
            "inputs": [[kind, digest] for kind, digest in input_hashes],
            "outputs": [
                artifact_to_record(artifact) for artifact in outcome.outputs
            ],
            "custody": [
                custody_to_record(entry) for entry in custody_delta
            ],
            "span_ids": list(span_ids),
            "fault_draws": (
                injector.draw_counts() if injector is not None else {}
            ),
            "fault_consults": (
                injector.consultation_counts()
                if injector is not None
                else {}
            ),
            "fault_log": list(fault_log_delta),
        }

    def _run_complete_record(
        self, state: _RunState, report_text: str
    ) -> dict[str, object]:
        return {
            "kind": "run-complete",
            "status": "aborted" if state.aborted else "completed",
            "finished_at": state.clock.now,
            "artifact_digest": state.artifacts.digest(),
            "custody_digest": custody_digest(state.custody.entries),
            "report_sha256": sha256_hex(report_text),
            "suppressed": state.suppressed,
            "suppression_reason": state.suppression_reason,
        }

    # -- resume ------------------------------------------------------------------

    def _restore(
        self,
        records: list[dict[str, object]],
        subject: Subject,
        seed: int,
        injector: FaultInjector | None,
        state: _RunState,
        done: dict[str, StepOutcome],
    ) -> dict[str, object] | None:
        """Rebuild run state from journal records.

        Returns the run-complete record if the journaled run had already
        finished, else ``None``.
        """
        start = RunStart.parse(records[0])
        if start.spec_digest != self.spec.spec_digest():
            raise JournalError(
                "journal was written by a different workflow spec "
                f"(digest {start.spec_digest[:12]}… vs "
                f"{self.spec.spec_digest()[:12]}…)"
            )
        if start.seed != seed:
            raise JournalError(
                f"journal seed {start.seed} does not match resume seed {seed}"
            )
        if start.subject_fingerprint_sha256 != sha256_hex(subject.fingerprint):
            raise JournalError(
                "journal subject fingerprint does not match the rebuilt "
                "subject — resuming over different evidence is forbidden"
            )
        expected_plan = (
            sha256_hex(injector.plan.describe()) if injector is not None else ""
        )
        if start.fault_plan_digest != expected_plan:
            raise JournalError(
                "journal fault plan does not match the resume fault plan"
            )

        entries = list(start.custody)
        last_time = 0.0
        last_draws: dict[str, int] = {}
        last_consults: dict[str, int] = {}
        adopted: list[dict[str, object]] = []
        complete: dict[str, object] | None = None
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "run-complete":
                complete = record
                continue
            if kind != "step":
                raise JournalError(f"unknown journal record kind: {kind!r}")
            outputs = tuple(
                artifact_from_record(entry)
                for entry in record.get("outputs", [])  # type: ignore[union-attr]
            )
            for artifact in outputs:
                state.artifacts.add(artifact)
            outcome = StepOutcome(
                step_id=str(record["step_id"]),
                status=StepStatus(str(record["status"])),
                attempts=int(record["attempts"]),  # type: ignore[arg-type]
                detail=str(record["detail"]),
                started_at=float(record["started_at"]),  # type: ignore[arg-type]
                finished_at=float(record["finished_at"]),  # type: ignore[arg-type]
                outputs=outputs,
                restored=True,
            )
            done[outcome.step_id] = outcome
            entries.extend(
                custody_from_record(entry)
                for entry in record.get("custody", [])  # type: ignore[union-attr]
            )
            last_time = outcome.finished_at
            last_draws = dict(record.get("fault_draws", {}))  # type: ignore[arg-type]
            last_consults = dict(record.get("fault_consults", {}))  # type: ignore[arg-type]
            adopted.extend(record.get("fault_log", []))  # type: ignore[arg-type]
            if outcome.status is StepStatus.FAILED:
                state.aborted = True
                state.suppressed = True
                state.suppression_reason = outcome.detail

        state.clock.now = last_time
        state.custody = ChainOfCustody.restore(
            state.custody.item, tuple(entries)
        )
        if injector is not None:
            injector.fast_forward(last_draws, last_consults)
            injector.adopt_log(adopted)
        return complete

    def _render(self, subject: Subject, state: _RunState) -> str:
        return render_report(
            spec=self.spec,
            subject=subject,
            status="aborted" if state.aborted else "completed",
            outcomes=tuple(state.outcomes),
            artifacts=state.artifacts,
            custody=state.custody,
            finished_at=state.clock.now,
            suppressed=state.suppressed,
            suppression_reason=state.suppression_reason,
        )

    def _check_complete_marker(
        self,
        marker: dict[str, object],
        state: _RunState,
        report_text: str,
    ) -> None:
        """Cross-check a journaled run-complete against rebuilt state.

        Raises:
            JournalError: If the rebuilt run diverges from what the
                original run recorded at completion.
        """
        expected = str(marker.get("report_sha256", ""))
        actual = sha256_hex(report_text)
        if expected and expected != actual:
            raise JournalError(
                f"rebuilt report hash {actual[:12]}… does not match the "
                f"journaled completion hash {expected[:12]}…"
            )
