"""REPRO103: deterministic subsystems must not read ambient entropy.

The Table 1 benchmark and the suppression split are exact claims; a
``time.time()`` or unseeded ``random.random()`` anywhere in the
simulation or legal core turns them flaky.  The sanctioned patterns are
seeded instances — ``random.Random(seed)``, ``numpy.random
.default_rng(seed)`` — and simulation-clock time.  The rule runs only
on the deterministic subsystems: ``netsim/``, ``techniques/``, and
``core/``.
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

_GUARDED_DIRECTORIES = {"netsim", "techniques", "core"}

#: Wall-clock reads, as (module, attribute) chains.
_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: ``random.<attr>`` calls that are fine: seeded-generator constructors.
_ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom", "default_rng", "Generator"}


def _attribute_chain(node: ast.expr) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


@register
class DeterminismRule(LintRule):
    """No wall-clock or unseeded randomness in deterministic subsystems."""

    code = "REPRO103"
    name = "determinism-guard"
    description = (
        "no datetime.now/time.time/bare random.* in netsim/, "
        "techniques/, or core/"
    )

    def applies_to(self, module: ModuleUnderLint) -> bool:
        return bool(_GUARDED_DIRECTORIES.intersection(module.parts()))

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if len(chain) < 2:
                continue
            dotted = ".".join(chain)
            if chain[-2:] in _CLOCK_CALLS:
                yield self.diagnostic(
                    module,
                    node,
                    f"wall-clock read `{dotted}()` in a deterministic "
                    "subsystem; benchmark results become "
                    "irreproducible",
                    fix_it=(
                        "thread the simulation clock (or an explicit "
                        "timestamp parameter) through instead"
                    ),
                )
            elif (
                chain[0] == "random"
                and len(chain) == 2
                and chain[1] not in _ALLOWED_RANDOM_ATTRS
            ):
                yield self.diagnostic(
                    module,
                    node,
                    f"unseeded module-level `{dotted}()` in a "
                    "deterministic subsystem",
                    fix_it=(
                        "construct `random.Random(seed)` and call the "
                        "method on that instance"
                    ),
                )
            elif (
                len(chain) == 3
                and chain[1] == "random"
                and chain[0] in {"np", "numpy"}
                and chain[2] not in _ALLOWED_RANDOM_ATTRS
            ):
                yield self.diagnostic(
                    module,
                    node,
                    f"global numpy RNG call `{dotted}()` in a "
                    "deterministic subsystem",
                    fix_it=(
                        "construct a generator with "
                        "`numpy.random.default_rng(seed)` and use it"
                    ),
                )
