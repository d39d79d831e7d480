"""The resume determinism gate: crash at every boundary, compare bytes.

For a given pack and seed, the verifier first runs the workflow
uninterrupted and snapshots the three comparison units — final report
bytes, artifact hash set, canonical custody chain — plus the
suppression outcome.  Then, for *every* journal record boundary, it
re-runs with an injected crash immediately after that record, resumes
from the journal in the same style a fresh process would (rebuild the
subject from the seed, build a fresh injector from the fault plan), and
asserts the resumed run reproduces the snapshot byte-for-byte.

The chaos variant repeats the exercise under a sample of storage fault
plans, rotating the crash boundary per plan, so resume correctness is
exercised *while the substrate itself is misbehaving* — the case where
injector RNG stream positions actually matter.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.workflow.engine import WorkflowEngine
from repro.workflow.faultplan import WorkflowFaultPlan
from repro.workflow.journal import WorkflowCrash, load_journal
from repro.workflow.packs import Pack, get_pack
from repro.workflow.report import RunResult, custody_digest


@dataclasses.dataclass(frozen=True)
class RunSnapshot:
    """The comparison units of one run."""

    report_text: str
    artifact_hashes: tuple[str, ...]
    custody_digest: str
    status: str
    suppressed: bool
    suppression_reason: str

    @classmethod
    def of(cls, result: RunResult) -> RunSnapshot:
        return cls(
            report_text=result.report_text,
            artifact_hashes=result.artifacts.hash_set(),
            custody_digest=custody_digest(result.custody.entries),
            status=result.status,
            suppressed=result.suppressed,
            suppression_reason=result.suppression_reason,
        )

    def diff(self, other: RunSnapshot) -> tuple[str, ...]:
        """Human-readable names of every diverging comparison unit."""
        problems = []
        if self.report_text != other.report_text:
            problems.append("final report bytes differ")
        if self.artifact_hashes != other.artifact_hashes:
            problems.append("artifact hash set differs")
        if self.custody_digest != other.custody_digest:
            problems.append("custody chain differs")
        if self.status != other.status:
            problems.append(
                f"run status differs ({self.status} vs {other.status})"
            )
        if (self.suppressed, self.suppression_reason) != (
            other.suppressed,
            other.suppression_reason,
        ):
            problems.append("suppression outcome differs")
        return tuple(problems)


@dataclasses.dataclass(frozen=True)
class BoundaryResult:
    """Outcome of one kill-and-resume check."""

    label: str
    boundary: int
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class SweepReport:
    """Everything one resume-determinism sweep produced."""

    pack: str
    seed: int
    boundaries: list[BoundaryResult] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        """Whether every boundary resumed byte-identically."""
        return all(result.ok for result in self.boundaries)

    @property
    def failures(self) -> tuple[BoundaryResult, ...]:
        """The diverging boundaries, if any."""
        return tuple(r for r in self.boundaries if not r.ok)

    def render(self) -> str:
        """A stable text rendering for the CLI and CI logs."""
        lines = [
            f"resume determinism sweep: pack={self.pack} seed={self.seed}",
            f"boundaries checked: {len(self.boundaries)}",
            f"verdict: {'OK' if self.ok else 'DIVERGED'}",
        ]
        for result in self.boundaries:
            marker = "ok" if result.ok else "FAIL"
            line = f"  [{marker:>4}] {result.label} boundary={result.boundary}"
            if result.detail:
                line += f" ({result.detail})"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _run_once(
    pack: Pack,
    seed: int,
    journal_path: Path,
    fault_plan: WorkflowFaultPlan,
    crash_after: int | None,
) -> RunResult:
    injector = fault_plan.build_injector()
    subject = pack.build_subject(seed, injector)
    engine = WorkflowEngine(pack.build_spec())
    return engine.run(
        subject,
        seed=seed,
        journal_path=journal_path,
        injector=injector,
        crash_after=crash_after,
    )


def _resume_once(
    pack: Pack,
    seed: int,
    journal_path: Path,
    fault_plan: WorkflowFaultPlan,
) -> RunResult:
    injector = fault_plan.build_injector()
    subject = pack.build_subject(seed, injector)
    engine = WorkflowEngine(pack.build_spec())
    return engine.resume(
        subject, seed=seed, journal_path=journal_path, injector=injector
    )


def check_boundary(
    pack: Pack,
    seed: int,
    baseline: RunSnapshot,
    boundary: int,
    workdir: Path,
    fault_plan: WorkflowFaultPlan,
    label: str,
) -> BoundaryResult:
    """Kill after one journal record, resume, compare to the baseline."""
    journal_path = workdir / f"{label}-crash-{boundary}.jsonl"
    crashed = False
    try:
        _run_once(pack, seed, journal_path, fault_plan, boundary)
    except WorkflowCrash:
        crashed = True
    if not crashed:
        return BoundaryResult(
            label=label,
            boundary=boundary,
            ok=False,
            detail="crash point never fired",
        )
    resumed = _resume_once(pack, seed, journal_path, fault_plan)
    problems = baseline.diff(RunSnapshot.of(resumed))
    return BoundaryResult(
        label=label,
        boundary=boundary,
        ok=not problems,
        detail="; ".join(problems),
    )


def resume_sweep(
    pack_name: str,
    seed: int,
    workdir: Path,
    fault_plan: WorkflowFaultPlan | None = None,
) -> SweepReport:
    """Crash-at-every-boundary sweep for one pack under one fault plan."""
    pack = get_pack(pack_name)
    plan = fault_plan or WorkflowFaultPlan()
    report = SweepReport(pack=pack_name, seed=seed)

    baseline_path = workdir / "baseline.jsonl"
    baseline_result = _run_once(pack, seed, baseline_path, plan, None)
    baseline = RunSnapshot.of(baseline_result)
    n_records = len(load_journal(baseline_path))

    for boundary in range(1, n_records + 1):
        report.boundaries.append(
            check_boundary(
                pack, seed, baseline, boundary, workdir, plan, "sweep"
            )
        )
    return report


def chaos_sample(
    pack_name: str,
    workdir: Path,
    n_plans: int = 25,
    base_seed: int = 1000,
) -> SweepReport:
    """Kill-and-resume under a sample of storage fault plans.

    Each of the ``n_plans`` plans gets its own run seed, fault seed, and
    storage fault probabilities, and the crash boundary rotates across
    the journal so the sample covers early, mid, and late crashes under
    live substrate faults.
    """
    pack = get_pack(pack_name)
    report = SweepReport(pack=pack_name, seed=base_seed)
    for index in range(n_plans):
        seed = base_seed + index
        plan = WorkflowFaultPlan(
            storage_read_probability=0.02 + 0.01 * (index % 4),
            storage_bitrot_probability=0.005 * (index % 3),
            fault_seed=seed * 13 + 7,
        )
        plan_dir = workdir / f"plan-{index:02d}"
        plan_dir.mkdir(parents=True, exist_ok=True)
        baseline_path = plan_dir / "baseline.jsonl"
        baseline_result = _run_once(pack, seed, baseline_path, plan, None)
        baseline = RunSnapshot.of(baseline_result)
        n_records = len(load_journal(baseline_path))
        boundary = 1 + (index % n_records)
        report.boundaries.append(
            check_boundary(
                pack,
                seed,
                baseline,
                boundary,
                plan_dir,
                plan,
                f"chaos-{index:02d}",
            )
        )
    return report
