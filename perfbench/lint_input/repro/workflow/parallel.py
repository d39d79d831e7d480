"""Concurrent workflow runs across independent evidence items.

Evidence items are seed-isolated by construction — each subject, RNG
stream, and injector derives from ``(pack, item seed)`` alone — so a
batch fans out across a process pool exactly like the chaos sweep does,
with the same contract: results come back in seed order and are
byte-identical to the serial path.  Each item journals to its own file
in the batch directory, so any individual run in a batch can be crash-
resumed independently.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro import obs
from repro.workflow.engine import WorkflowEngine
from repro.workflow.faultplan import WorkflowFaultPlan, parse_fault_plan
from repro.workflow.packs import get_pack
from repro.workflow.report import RunResult


@dataclasses.dataclass(frozen=True)
class ItemSummary:
    """A picklable summary of one item's run."""

    subject_id: str
    seed: int
    status: str
    report_sha256: str
    artifact_digest: str
    custody_entries: int
    suppressed: bool
    journal: str

    @classmethod
    def of(cls, result: RunResult, seed: int) -> ItemSummary:
        return cls(
            subject_id=result.subject_id,
            seed=seed,
            status=result.status,
            report_sha256=result.report_sha256,
            artifact_digest=result.artifacts.digest(),
            custody_entries=len(result.custody.entries),
            suppressed=result.suppressed,
            journal=str(result.journal_path or ""),
        )


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Summaries for every item in a batch, in seed order."""

    pack: str
    summaries: tuple[ItemSummary, ...]

    def render(self) -> str:
        """Stable text rendering for the CLI."""
        lines = [f"workflow batch: pack={self.pack} items={len(self.summaries)}"]
        for summary in self.summaries:
            lines.append(
                f"  {summary.subject_id} seed={summary.seed} "
                f"status={summary.status} report={summary.report_sha256[:12]} "
                f"artifacts={summary.artifact_digest[:12]} "
                f"custody={summary.custody_entries}"
                + (" SUPPRESSED" if summary.suppressed else "")
            )
        return "\n".join(lines) + "\n"


def _item_worker(
    task: tuple[str, int, str, str],
) -> ItemSummary:
    """Run one evidence item; module-level so the pool can pickle it."""
    pack_name, seed, journal_dir, fault_plan_text = task
    pack = get_pack(pack_name)
    plan = (
        parse_fault_plan(fault_plan_text)
        if fault_plan_text
        else WorkflowFaultPlan()
    )
    injector = plan.build_injector()
    subject = pack.build_subject(seed, injector)
    engine = WorkflowEngine(pack.build_spec())
    journal_path = Path(journal_dir) / f"{pack_name}-seed{seed}.jsonl"
    result = engine.run(
        subject, seed=seed, journal_path=journal_path, injector=injector
    )
    return ItemSummary.of(result, seed)


def resolve_workers(max_workers: int | None, n_items: int) -> int:
    """``None`` → one worker per CPU capped at the item count; < 2 → serial."""
    if max_workers is None:
        return min(n_items, os.cpu_count() or 1)
    return max(1, max_workers)


def run_batch(
    pack_name: str,
    n_items: int,
    seed: int,
    journal_dir: Path,
    max_workers: int | None = None,
    fault_plan: WorkflowFaultPlan | None = None,
) -> BatchResult:
    """Run one pack over ``n_items`` independent evidence items.

    Item seeds are ``seed, seed+1, ...``; journals land in
    ``journal_dir`` one file per item.  With fewer than two effective
    workers the batch runs serially in-process — the pool is an
    optimization, never a semantic.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1: {n_items}")
    journal_dir.mkdir(parents=True, exist_ok=True)
    plan_text = fault_plan.describe() if fault_plan is not None else ""
    if plan_text == "none":
        plan_text = ""
    tasks = [
        (pack_name, seed + offset, str(journal_dir), plan_text)
        for offset in range(n_items)
    ]
    workers = resolve_workers(max_workers, n_items)
    with obs.span("workflow.batch", pack=pack_name, items=n_items):
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                summaries = tuple(pool.map(_item_worker, tasks))
        else:
            summaries = tuple(_item_worker(task) for task in tasks)
    return BatchResult(pack=pack_name, summaries=summaries)
