"""Static compliance analysis: lint plans and code before anything runs.

Two targets, one diagnostic vocabulary:

* **Plan analysis** — :class:`PlanAnalyzer` walks a :class:`Plan` (an
  ordered IR over :class:`~repro.core.action.InvestigativeAction`s) with
  the compliance engine in pure-ruling mode, including the cross-step
  checks the per-action engine cannot see (forfeited exceptions,
  fruit-of-the-poisonous-tree propagation).
* **Code analysis** — a plugin AST linter
  (:mod:`repro.analysis.pylint_rules`) enforcing the repo's own
  invariants: technique contracts, catalogue answers, determinism,
  ``max()``/``min()`` emptiness safety, exhaustive enum dispatch, and
  mutable-default hygiene.

Public API::

    from repro.analysis import (
        Diagnostic, Severity, Plan, PlanStep, PlanAnalyzer,
        plan_from_technique, plan_from_scenario, lint_paths,
    )
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    has_errors,
    render_report,
    worst_severity,
)
from repro.analysis.plan import (
    DEMO_PLANS,
    Plan,
    PlanStep,
    forfeited_consent_plan,
    plan_from_scenario,
    plan_from_scene_number,
    plan_from_technique,
    tainted_downstream_plan,
)
from repro.analysis.baseline import (
    filter_baselined,
    load_baseline,
    write_baseline,
)
from repro.analysis.plan_checker import PlanAnalyzer, PlanReport
from repro.analysis.runner import (
    LintRun,
    default_lint_root,
    iter_python_files,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.analysis.sarif import to_sarif, write_sarif

__all__ = [
    "DEMO_PLANS",
    "Diagnostic",
    "LintRun",
    "Plan",
    "PlanAnalyzer",
    "PlanReport",
    "PlanStep",
    "Severity",
    "default_lint_root",
    "filter_baselined",
    "forfeited_consent_plan",
    "has_errors",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "plan_from_scenario",
    "plan_from_scene_number",
    "plan_from_technique",
    "render_report",
    "run_lint",
    "tainted_downstream_plan",
    "to_sarif",
    "worst_severity",
    "write_baseline",
    "write_sarif",
]
