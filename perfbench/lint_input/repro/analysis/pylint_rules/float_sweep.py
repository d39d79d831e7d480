"""REPRO108: technique sweeps may not accumulate floats in a while loop.

The pattern this rule hunts is the scalar offset sweep the vectorized
signal kernels replaced::

    offset = 0.0
    while offset <= max_offset:
        ...one full pass over the arrivals...
        offset += offset_step

It is slow — one O(packets) pass per trial offset instead of one batched
kernel call — and subtly wrong at the edges: accumulated floating-point
error decides whether the final offset makes the cut, and a zero or
negative step loops forever.  Detector hot paths should build the trial
grid once with :func:`repro.signal.offset_grid` (which validates both
parameters) and hand the whole offset axis to the kernels in
:mod:`repro.signal`.

The scalar twins kept for the differential suite are exempt: a function
whose name starts with ``_reference`` exists precisely to preserve the
legacy loop for equivalence testing.  Increments that call out (for
example ``t += rng.expovariate(rate)``) model arrival processes, not
sweep grids, and integer-constant increments are counters — neither is
flagged.
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


def _swept_variable(loop: ast.While) -> str | None:
    """The loop variable of a ``while x <= bound`` / ``while x < bound``."""
    test = loop.test
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    if not isinstance(test.ops[0], (ast.Lt, ast.LtE)):
        return None
    if not isinstance(test.left, ast.Name):
        return None
    return test.left.id


def _is_float_accumulation(statement: ast.stmt, variable: str) -> bool:
    """Whether the statement is ``variable += <non-call, non-int>``."""
    if not isinstance(statement, ast.AugAssign):
        return False
    if not isinstance(statement.op, ast.Add):
        return False
    target = statement.target
    if not isinstance(target, ast.Name) or target.id != variable:
        return False
    value = statement.value
    if isinstance(value, ast.Call):
        # ``t += rng.expovariate(rate)`` — an arrival process, not a grid.
        return False
    if isinstance(value, ast.Constant) and isinstance(value.value, int):
        # Integer counters never accumulate representation error.
        return False
    return True


@register
class FloatSweepRule(LintRule):
    """Offset sweeps must use the vectorized grid, not += accumulation."""

    code = "REPRO108"
    name = "float-accumulation-sweep"
    description = (
        "technique loops may not sweep offsets by accumulating floats "
        "(while x <= bound: ... x += step); build the grid once with "
        "repro.signal.offset_grid and batch through the signal kernels"
    )

    def applies_to(self, module: ModuleUnderLint) -> bool:
        return "techniques" in module.parts()

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for function in ast.walk(module.tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if function.name.startswith("_reference"):
                # The scalar twin kept for the differential suite.
                continue
            for loop in ast.walk(function):
                if not isinstance(loop, ast.While):
                    continue
                variable = _swept_variable(loop)
                if variable is None:
                    continue
                if not any(
                    _is_float_accumulation(node, variable)
                    for node in ast.walk(loop)
                    if node is not loop
                ):
                    continue
                yield self.diagnostic(
                    module,
                    loop,
                    f"`{function.name}` sweeps `{variable}` by float "
                    "accumulation; the grid's edge behaviour depends on "
                    "rounding and a non-positive step never terminates",
                    fix_it=(
                        "build the trial grid once with "
                        "repro.signal.offset_grid(max_offset, step) and "
                        "evaluate all offsets through the batched kernels "
                        "in repro.signal"
                    ),
                )
