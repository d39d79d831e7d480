"""Deterministic fault injection for every substrate in the reproduction.

The paper's legal conclusions are invariants — they must hold on a lossy
tap, under a hostile court, and over rotting storage just as they do on
the happy path.  This package provides the seed-driven
:class:`FaultPlan`/:class:`FaultInjector` pair the substrates consult,
the bounded :class:`RetryPolicy` consumers use to survive injected
denials, and the chaos harness that re-runs the headline experiments
under randomized plans.
"""

from repro.faults.errors import (
    CourtFault,
    FaultError,
    StorageFault,
    TransientReadError,
)
from repro.faults.injector import FaultInjector, InjectionRecord
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy, run_with_retries

#: Chaos-harness names served lazily: the harness imports the pipeline,
#: which imports this package's leaf modules, so an eager import here
#: would be circular.
_CHAOS_EXPORTS = frozenset(
    {"ChaosReport", "PlanResult", "run_chaos", "run_plan", "select_scenes"}
)


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChaosReport",
    "CourtFault",
    "FaultError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectionRecord",
    "PlanResult",
    "RetryPolicy",
    "StorageFault",
    "TransientReadError",
    "run_chaos",
    "run_plan",
    "run_with_retries",
    "select_scenes",
]
