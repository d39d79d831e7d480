"""Crash-resumable evidence workflows with journaled checkpoints.

The paper's thesis is procedural: every acquisition must clear a legal
gate, and one slip poisons everything downstream.  This package is the
engineering answer a real lab gives to that fragility — a declarative
DAG of typed steps (:mod:`repro.workflow.spec`) whose legal bases are
statically checked before anything runs, executed under per-step retry
and degradation policies (:mod:`repro.workflow.engine`), with every
step boundary durably journaled (:mod:`repro.workflow.journal`) so a
crashed or fault-killed run resumes byte-identically
(:mod:`repro.workflow.verify` proves it at every boundary).  Scenario
packs live in :mod:`repro.workflow.packs`; batch fan-out across
evidence items in :mod:`repro.workflow.parallel`.
"""

from __future__ import annotations

from repro.workflow.artifacts import Artifact, ArtifactStore
from repro.workflow.context import (
    SimClock,
    StepContext,
    StepFailure,
    Subject,
)
from repro.workflow.engine import (
    StepTimeout,
    WorkflowEngine,
    WorkflowLegalityError,
)
from repro.workflow.faultplan import (
    FaultPlanSyntaxError,
    WorkflowFaultPlan,
    parse_fault_plan,
)
from repro.workflow.journal import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    WorkflowCrash,
    load_journal,
)
from repro.workflow.report import (
    RunResult,
    StepOutcome,
    StepStatus,
    custody_digest,
    render_report,
)
from repro.workflow.spec import (
    OnFailure,
    StepSpec,
    WorkflowDefinitionError,
    WorkflowSpec,
)

__all__ = [
    "JOURNAL_VERSION",
    "Artifact",
    "ArtifactStore",
    "FaultPlanSyntaxError",
    "Journal",
    "JournalError",
    "OnFailure",
    "RunResult",
    "SimClock",
    "StepContext",
    "StepFailure",
    "StepOutcome",
    "StepSpec",
    "StepStatus",
    "StepTimeout",
    "Subject",
    "WorkflowCrash",
    "WorkflowDefinitionError",
    "WorkflowEngine",
    "WorkflowFaultPlan",
    "WorkflowLegalityError",
    "WorkflowSpec",
    "custody_digest",
    "load_journal",
    "parse_fault_plan",
    "render_report",
]
