"""REPRO112: an acquired image must be hash-checkpointed before use.

Chain of custody for imaged media starts at acquisition: the first
thing done with a freshly acquired image must be a digest computation
(compared against the source, or recorded), because any examination
performed *before* the checkpoint is an examination of bytes nobody can
later prove were the seized bytes.  The shipped imaging pipeline
(:func:`repro.storage.blockdev.image_device`) verifies internally, and
every shipped caller still re-checks at the call site — this rule keeps
that discipline mandatory.

The analysis is a forward may-analysis on the CFG: a name assigned from
an imaging call is *possibly unhashed* until some element computes its
digest (``image.sha256()``, or passing it to a ``hash``/``digest``/
``verify``-flavoured call); any other use — attribute access, carving,
returning it to a caller — while possibly unhashed is a finding.  Facts
join by union, so a hash checkpoint on only one branch does not clear
the other.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.flow.cfg import Cfg, iter_element_nodes
from repro.analysis.flow.dataflow import solve
from repro.analysis.flow.legality import terminal_name
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)

#: Calls whose result is an acquired image requiring a checkpoint.
_IMAGING_CALLS = frozenset({"image_device"})

#: Call names that constitute a hash checkpoint for their operands.
_HASH_CALLS = frozenset(
    {
        "sha256",
        "sha1",
        "md5",
        "digest",
        "hexdigest",
        "checksum",
        "hash",
        "verify_hash",
        "record_hash",
        "checkpoint",
    }
)


def _imaging_assignment(element: ast.AST) -> list[str]:
    """Names bound to a fresh image by this element, if any."""
    if not isinstance(element, (ast.Assign, ast.AnnAssign)):
        return []
    value = getattr(element, "value", None)
    if not (
        isinstance(value, ast.Call)
        and terminal_name(value.func) in _IMAGING_CALLS
    ):
        return []
    targets = (
        element.targets
        if isinstance(element, ast.Assign)
        else [element.target]
    )
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _assigned_names(element: ast.AST) -> set[str]:
    """Every name (re)bound by this element (kills tracking)."""
    names: set[str] = set()
    if isinstance(element, ast.Assign):
        targets = element.targets
    elif isinstance(element, (ast.AnnAssign, ast.AugAssign)):
        targets = [element.target]
    else:
        return names
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _hash_checkpointed(element: ast.AST) -> set[str]:
    """Names whose digest this element computes."""
    hashed: set[str] = set()
    for node in iter_element_nodes(element):
        if not isinstance(node, ast.Call):
            continue
        name = terminal_name(node.func)
        if name not in _HASH_CALLS:
            continue
        # ``image.sha256()`` checkpoints the receiver; ``digest(image)``
        # checkpoints the arguments.
        if isinstance(node.func, ast.Attribute):
            for inner in ast.walk(node.func.value):
                if isinstance(inner, ast.Name):
                    hashed.add(inner.id)
        for argument in node.args:
            for inner in ast.walk(argument):
                if isinstance(inner, ast.Name):
                    hashed.add(inner.id)
    return hashed


def _used_names(element: ast.AST) -> set[str]:
    """Names read by this element (assignment targets excluded)."""
    targets = {id(n) for t in _targets_of(element) for n in ast.walk(t)}
    used: set[str] = set()
    for node in iter_element_nodes(element):
        if isinstance(node, ast.Name) and id(node) not in targets:
            used.add(node.id)
    return used


def _targets_of(element: ast.AST) -> list[ast.expr]:
    if isinstance(element, ast.Assign):
        return list(element.targets)
    if isinstance(element, (ast.AnnAssign, ast.AugAssign)):
        return [element.target]
    return []


def _apply_element(
    element: ast.AST,
    fact: frozenset[str],
    report: list[tuple[ast.AST, str]] | None,
) -> frozenset[str]:
    """Transfer one element; optionally record use-before-hash sites."""
    hashed = _hash_checkpointed(element)
    if report is not None:
        for name in sorted(_used_names(element) & fact):
            # A digest computed in the same element sanctions that
            # element's other reads (`assert img.sha256() == src.sha256()`).
            if name in hashed:
                continue
            report.append((element, name))
    fact -= hashed
    fact -= _assigned_names(element)
    fact |= frozenset(_imaging_assignment(element))
    return fact


@register
class HashCheckpointRule(LintRule):
    """Freshly imaged media must be digested before any other use."""

    code = "REPRO112"
    name = "hash-checkpoint"
    description = (
        "a value acquired via image_device() must have its digest "
        "computed (and compared or recorded) before any other use"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        project = self.project_for(module)
        for info in project.functions():
            if info.module is not module:
                continue
            cfg = project.cfg(info)
            if not self._has_imaging(cfg):
                continue
            solution = solve(
                cfg,
                boundary=frozenset(),
                top=frozenset(),
                transfer=lambda block, fact, cfg=cfg: self._transfer(
                    cfg, block, fact
                ),
                join=lambda a, b: a | b,
            )
            reported: set[str] = set()
            for block in cfg.reachable_blocks():
                fact = solution[block.index][0]
                findings: list[tuple[ast.AST, str]] = []
                for element in block.elements:
                    fact = _apply_element(element, fact, findings)
                for element, name in findings:
                    if name in reported:
                        continue
                    reported.add(name)
                    yield self.diagnostic(
                        module,
                        element,
                        f"acquired image `{name}` is used before a "
                        "hash checkpoint on at least one path; an "
                        "examination of unverified bytes cannot be "
                        "tied to the seized media",
                        fix_it=(
                            f"compute `{name}.sha256()` (and compare "
                            "it against the source or record it) "
                            "immediately after acquisition, on every "
                            "path"
                        ),
                    )

    @staticmethod
    def _has_imaging(cfg: Cfg) -> bool:
        return any(
            _imaging_assignment(element)
            for block in cfg.reachable_blocks()
            for element in block.elements
        )

    @staticmethod
    def _transfer(
        cfg: Cfg, block: int, fact: frozenset[str]
    ) -> frozenset[str]:
        for element in cfg.block(block).elements:
            fact = _apply_element(element, fact, None)
        return fact
