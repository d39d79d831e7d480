"""The AST lint-rule plugin package.

Importing this package populates the rule registry: each rule module
self-registers via :func:`~repro.analysis.pylint_rules.base.register`.
To add a rule, create a module here with a registered
:class:`~repro.analysis.pylint_rules.base.LintRule` subclass and import
it below.
"""

from repro.analysis.pylint_rules import (  # noqa: F401  (registration)
    determinism,
    empty_iterable,
    enum_dispatch,
    fault_swallow,
    float_sweep,
    gated_acquisition,
    hash_checkpoint,
    mutable_defaults,
    poisonous_flow,
    retry_backoff,
    scenario_answers,
    technique_contract,
    telemetry,
)
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    all_rules,
    register,
)

__all__ = [
    "LintRule",
    "ModuleUnderLint",
    "all_rules",
    "register",
]
