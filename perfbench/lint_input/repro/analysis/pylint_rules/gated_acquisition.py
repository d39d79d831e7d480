"""REPRO110: every acquisition must be dominated by a legal gate.

The paper's Table 1 maps each acquisition technique to the minimum legal
process it requires; the runtime enforces that mapping dynamically (the
compliance engine refuses, the suppression hearing excludes).  This rule
is the *static* half of the same contract: at every call site that
exercises an acquisition capability — tap installation, device imaging,
stored-record fetches, investigator actions, relay queries — **all**
control-flow paths from the function entry to the call must first cross
a legal gate: a process-validity or compliance-engine check, an
application to the magistrate, a raise of ``InsufficientProcess``, or a
conscious dispatch on a statutory-exception predicate (the provider
exception, consent, emergency).

This is a must-pass dataflow problem on the function's CFG, not a
syntactic pattern: an ``if``/``else`` where only one arm checks, a
``try`` body whose handler skips the check, a loop that can bypass the
gate on its back edge — all produce a concrete *ungated path*, which the
diagnostic renders block by block so the offending route is reviewable.

Sanctioned exceptions are suppressed inline with a mandatory
justification (``# repro-lint: disable=REPRO110 -- <legal basis>``);
the taint analysis (REPRO111) treats those sites as lawful and every
other ungated site as a poison source.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.cfg import Cfg
from repro.analysis.flow.dataflow import (
    find_unguarded_path,
    must_pass_positions,
)
from repro.analysis.flow.legality import (
    capability_calls,
    is_gate_element,
    terminal_name,
)
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)


def _render_path(cfg: Cfg, path: list[int]) -> str:
    """One ungated path as ``entry -> then@L12 -> ...`` for the message."""
    hops: list[str] = []
    for index in path:
        block = cfg.block(index)
        line = block.first_line()
        hops.append(
            f"{block.label}@L{line}" if line is not None else block.label
        )
    return " -> ".join(hops)


@register
class GatedAcquisitionRule(LintRule):
    """Acquisition capabilities must be gated on all CFG paths."""

    code = "REPRO110"
    name = "gated-acquisition"
    description = (
        "every path to an acquisition call (attach_tap, image_device, "
        "compelled_disclosure, act, query, ...) must cross a legal gate "
        "(validity check, compliance evaluation, or statutory exception)"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        project = self.project_for(module)
        for info in project.functions():
            if info.module is not module:
                continue
            cfg = project.cfg(info)
            gated_at = must_pass_positions(cfg, is_gate_element)
            for block in cfg.reachable_blocks():
                for position, element in enumerate(block.elements):
                    calls = list(capability_calls(element))
                    if not calls:
                        continue
                    # A gate evaluated within the same element (a
                    # validity call in the arguments, an explicit
                    # exception keyword) executes before the capability.
                    if gated_at[(block.index, position)] or is_gate_element(
                        element
                    ):
                        continue
                    path = find_unguarded_path(
                        cfg, block.index, position, is_gate_element
                    )
                    rendered = (
                        _render_path(cfg, path) if path else "<entry>"
                    )
                    for call in calls:
                        capability = terminal_name(call.func)
                        yield self.diagnostic(
                            module,
                            call,
                            f"`{info.qualname}` reaches the acquisition "
                            f"`{capability}(...)` with no legal gate on "
                            f"the path [{rendered}]; every path from the "
                            "entry must first check process validity or "
                            "a statutory exception",
                            fix_it=(
                                "dominate this call with a compliance "
                                "check (engine.evaluate / "
                                "process.satisfies / apply_for) or, if a "
                                "statutory exception applies, branch on "
                                "its predicate or suppress with "
                                "`# repro-lint: disable=REPRO110 -- "
                                "<legal basis>`"
                            ),
                        )
