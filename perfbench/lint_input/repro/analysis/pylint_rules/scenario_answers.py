"""REPRO102: catalogue scenes must carry the paper's answer.

The Table 1 and extended-scene catalogues are the repo's ground truth;
a ``Scenario`` constructed without ``paper_needs_process`` (or an
``ExtendedScene`` without ``expected_process``) compiles fine but makes
the benchmark vacuous for that row.  The rule runs only on the two
catalogue modules.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)

#: Constructor name -> (answer keyword, positional arity that covers it).
_REQUIRED_ANSWERS: dict[str, tuple[str, int]] = {
    "Scenario": ("paper_needs_process", 3),
    "ExtendedScene": ("expected_process", 3),
}

_CATALOGUE_FILES = {"scenarios.py", "extended_scenarios.py"}


@register
class ScenarioAnswerRule(LintRule):
    """Catalogue ``Scenario``/``ExtendedScene`` calls declare answers."""

    code = "REPRO102"
    name = "scenario-answer"
    description = (
        "every Scenario/ExtendedScene built in the catalogues carries "
        "the paper's published answer"
    )

    def applies_to(self, module: ModuleUnderLint) -> bool:
        return module.parts()[-1] in _CATALOGUE_FILES

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Name):
                continue
            required = _REQUIRED_ANSWERS.get(node.func.id)
            if required is None:
                continue
            keyword_name, covering_arity = required
            keywords = {
                keyword.arg
                for keyword in node.keywords
                if keyword.arg is not None
            }
            has_star_kwargs = any(
                keyword.arg is None for keyword in node.keywords
            )
            if (
                keyword_name in keywords
                or len(node.args) >= covering_arity
                or has_star_kwargs
            ):
                continue
            yield self.diagnostic(
                module,
                node,
                f"{node.func.id} constructed without "
                f"`{keyword_name}`; the benchmark cannot check this "
                "scene against the paper",
                fix_it=(
                    f"pass `{keyword_name}=...` with the paper's "
                    "published answer"
                ),
            )
