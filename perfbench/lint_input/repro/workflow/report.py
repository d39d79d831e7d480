"""Run results and the deterministic final report.

The report is the byte-for-byte comparison unit of the resume
determinism gate: an uninterrupted run and a crash-resumed run of the
same workflow over the same subject must render identical bytes.  That
forces a discipline on everything in here — simulated time only (never
wall time), content hashes only (never live object ids), and sorted
ordering everywhere an ordering exists.
"""

from __future__ import annotations

import dataclasses
import enum
from pathlib import Path

from repro.evidence.custody import ChainOfCustody, CustodyEntry
from repro.storage.hashing import sha256_hex
from repro.workflow.artifacts import Artifact, ArtifactStore
from repro.workflow.context import Subject
from repro.workflow.spec import WorkflowSpec


class StepStatus(enum.Enum):
    """Terminal status of one step within one run."""

    COMPLETED = "completed"
    SKIPPED = "skipped"
    FAILED = "failed"
    NOT_RUN = "not-run"


@dataclasses.dataclass(frozen=True)
class StepOutcome:
    """What happened to one step.

    Attributes:
        step_id: The step.
        status: Terminal status.
        attempts: Attempts actually made (0 for skipped/not-run).
        detail: Failure/degradation detail; empty on success.
        started_at: Sim time the first attempt started.
        finished_at: Sim time the step reached its terminal status.
        outputs: Artifacts produced (completed steps only).
        restored: Whether this outcome was restored from a journal
            rather than executed in this process (excluded from every
            comparison — a restored run must be indistinguishable).
    """

    step_id: str
    status: StepStatus
    attempts: int = 0
    detail: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    outputs: tuple[Artifact, ...] = ()
    restored: bool = dataclasses.field(default=False, compare=False)


@dataclasses.dataclass
class RunResult:
    """Everything one workflow run produced."""

    workflow: str
    subject_id: str
    status: str
    outcomes: tuple[StepOutcome, ...]
    artifacts: ArtifactStore
    custody: ChainOfCustody
    finished_at: float
    suppressed: bool
    suppression_reason: str
    report_text: str
    journal_path: Path | None
    resumed: bool = False

    @property
    def report_sha256(self) -> str:
        """Hex digest of the final report bytes."""
        return sha256_hex(self.report_text)

    def outcome(self, step_id: str) -> StepOutcome:
        """One step's outcome.

        Raises:
            KeyError: If the run has no such step.
        """
        for outcome in self.outcomes:
            if outcome.step_id == step_id:
                return outcome
        raise KeyError(f"no outcome for step {step_id!r}")


def custody_lines(entries: tuple[CustodyEntry, ...]) -> tuple[str, ...]:
    """Canonical one-line renderings of custody entries, in log order."""
    return tuple(
        f"t={entry.timestamp:.6f} custodian={entry.custodian} "
        f"hash={entry.content_hash} event={entry.event}"
        for entry in entries
    )


def custody_digest(entries: tuple[CustodyEntry, ...]) -> str:
    """SHA-256 over the canonical custody log."""
    return sha256_hex("\n".join(custody_lines(entries)))


def run_confidence(outcomes: tuple[StepOutcome, ...]) -> float:
    """Fraction of steps that completed — the run's blunt confidence.

    A skipped step (degraded per policy) costs confidence without
    killing the run; failed and not-run steps count the same way.
    """
    if not outcomes:
        return 0.0
    completed = sum(
        1 for outcome in outcomes if outcome.status is StepStatus.COMPLETED
    )
    return completed / len(outcomes)


def render_report(
    spec: WorkflowSpec,
    subject: Subject,
    status: str,
    outcomes: tuple[StepOutcome, ...],
    artifacts: ArtifactStore,
    custody: ChainOfCustody,
    finished_at: float,
    suppressed: bool,
    suppression_reason: str,
) -> str:
    """Render the deterministic final report for one run."""
    lines = [
        f"workflow report: {spec.name} v{spec.version}",
        f"spec digest: {spec.spec_digest()}",
        f"subject: {subject.subject_id} — {subject.description}",
        f"subject fingerprint sha256: {sha256_hex(subject.fingerprint)}",
        "declared instruments: "
        + (
            ", ".join(kind.display_name for kind in spec.instruments)
            or "none"
        ),
        f"status: {status}",
        f"sim time at completion: {finished_at:.6f}",
        f"confidence: {run_confidence(outcomes):.4f} "
        f"({sum(1 for o in outcomes if o.status is StepStatus.COMPLETED)}"
        f"/{len(outcomes)} steps completed)",
    ]
    if suppressed:
        lines.append(f"EVIDENCE SUPPRESSED: {suppression_reason}")
    lines.append("")
    lines.append("steps:")
    for outcome in outcomes:
        step = spec.step(outcome.step_id)
        marker = {
            StepStatus.COMPLETED: "ok",
            StepStatus.SKIPPED: "skip",
            StepStatus.FAILED: "FAIL",
            StepStatus.NOT_RUN: "----",
        }[outcome.status]
        line = (
            f"  [{marker:>4}] {outcome.step_id:<22} {step.title} "
            f"attempts={outcome.attempts} "
            f"t={outcome.started_at:.6f}..{outcome.finished_at:.6f}"
        )
        if outcome.detail:
            line += f" ({outcome.detail})"
        lines.append(line)
    lines.append("")
    lines.append(f"artifacts ({len(artifacts)}):")
    for artifact in artifacts.artifacts():
        lines.append(f"  {artifact.describe()}")
    lines.append("")
    entries = custody.entries
    lines.append(
        f"chain of custody ({len(entries)} entries, "
        f"intact={custody.intact()}):"
    )
    for line in custody_lines(entries):
        lines.append(f"  {line}")
    lines.append("")
    lines.append(f"artifact set digest: {artifacts.digest()}")
    lines.append(f"custody digest: {custody_digest(entries)}")
    return "\n".join(lines) + "\n"
