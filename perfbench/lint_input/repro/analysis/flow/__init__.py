"""Intra-/inter-procedural static-analysis infrastructure.

The flow layer turns a parsed function into artifacts the lint rules
can reason about *soundly* instead of pattern-matching on ``ast.walk``:

* :mod:`~repro.analysis.flow.cfg` — a control-flow graph per function
  (branches, loops with ``else``, ``try``/``except``/``finally``,
  ``with``, ``break``/``continue``/``return``/``raise``);
* :mod:`~repro.analysis.flow.dominance` — immediate dominators, the
  dominator tree, and back-edge/natural-loop discovery on top of it;
* :mod:`~repro.analysis.flow.dataflow` — a generic worklist solver with
  pluggable join/transfer, plus the must-pass ("every path from entry
  crosses a barrier") analysis the gated-acquisition prover is built on;
* :mod:`~repro.analysis.flow.symbols` — a scoped symbol table with
  Python lookup rules (class bodies are not enclosing scopes);
* :mod:`~repro.analysis.flow.project` — the whole-file-set view: a
  function index, call resolution, and per-function CFG caching, which
  is what makes the taint analysis interprocedural.
"""

from repro.analysis.flow.cfg import Cfg, CfgBlock, build_cfg, render_cfg
from repro.analysis.flow.dataflow import (
    Direction,
    find_unguarded_path,
    must_pass_positions,
    solve,
)
from repro.analysis.flow.dominance import (
    back_edges,
    dominator_sets,
    dominator_tree_children,
    immediate_dominators,
    natural_loop,
)
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.flow.symbols import (
    Binding,
    BindingKind,
    ScopedSymbolTable,
)

__all__ = [
    "Binding",
    "BindingKind",
    "Cfg",
    "CfgBlock",
    "Direction",
    "FunctionInfo",
    "Project",
    "ScopedSymbolTable",
    "back_edges",
    "build_cfg",
    "dominator_sets",
    "dominator_tree_children",
    "find_unguarded_path",
    "immediate_dominators",
    "must_pass_positions",
    "natural_loop",
    "render_cfg",
    "solve",
]
