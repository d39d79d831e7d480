"""A worklist dataflow solver with pluggable lattices.

:func:`solve` runs any monotone framework to a fixpoint over a
:class:`~repro.analysis.flow.cfg.Cfg`: the caller supplies the lattice
as plain callables (``join``, ``transfer``) plus the boundary fact and
the optimistic initial value (``top``).  Facts are opaque to the solver.

:func:`must_pass_positions` is the all-paths analysis the
gated-acquisition prover is built on: for every element position it
answers "does *every* path from the entry to this element cross a
barrier first?" — the lattice is the two-point must lattice (``True`` =
gated on all paths so far, join = logical and).
"""

from __future__ import annotations

import ast
import enum
from collections.abc import Callable
from typing import TypeVar

from repro.analysis.flow.cfg import Cfg

T = TypeVar("T")


class Direction(enum.Enum):
    """Which way facts propagate."""

    FORWARD = "forward"
    BACKWARD = "backward"


def solve(
    cfg: Cfg,
    *,
    boundary: T,
    top: T,
    transfer: Callable[[int, T], T],
    join: Callable[[T, T], T],
    direction: Direction = Direction.FORWARD,
    equals: Callable[[T, T], bool] | None = None,
) -> dict[int, tuple[T, T]]:
    """Run a dataflow problem to fixpoint.

    Args:
        cfg: The graph to solve over (only reachable blocks participate).
        boundary: The fact at the entry (forward) or exit (backward).
        top: The optimistic initial fact for every other block.
        transfer: ``transfer(block_index, in_fact) -> out_fact``.
        join: Combine facts where paths meet.
        direction: Forward or backward propagation.
        equals: Fact equality (defaults to ``==``).

    Returns:
        ``{block_index: (in_fact, out_fact)}`` for reachable blocks, where
        "in" is the fact entering the transfer function (so, for a
        backward problem, the fact at the block's *exit*).
    """
    same = equals or (lambda a, b: bool(a == b))
    if direction is Direction.FORWARD:
        start = cfg.entry
        incoming = {
            b.index: [
                p for p in b.predecessors if p in cfg.reachable
            ]
            for b in cfg.reachable_blocks()
        }
        outgoing = {
            b.index: [
                s for s in b.successors if s in cfg.reachable
            ]
            for b in cfg.reachable_blocks()
        }
    else:
        start = cfg.exit
        incoming = {
            b.index: [
                s for s in b.successors if s in cfg.reachable
            ]
            for b in cfg.reachable_blocks()
        }
        outgoing = {
            b.index: [
                p for p in b.predecessors if p in cfg.reachable
            ]
            for b in cfg.reachable_blocks()
        }

    in_facts: dict[int, T] = {
        b.index: top for b in cfg.reachable_blocks()
    }
    out_facts: dict[int, T] = {}
    in_facts[start] = boundary

    worklist = [b.index for b in cfg.reachable_blocks()]
    pending = set(worklist)
    while worklist:
        block = worklist.pop(0)
        pending.discard(block)
        sources = incoming[block]
        if block != start and sources:
            fact = out_facts.get(sources[0], top)
            for other in sources[1:]:
                fact = join(fact, out_facts.get(other, top))
            in_facts[block] = fact
        new_out = transfer(block, in_facts[block])
        old_out = out_facts.get(block)
        if old_out is None or not same(old_out, new_out):
            out_facts[block] = new_out
            for target in outgoing[block]:
                if target not in pending:
                    pending.add(target)
                    worklist.append(target)
    return {
        index: (in_facts[index], out_facts[index])
        for index in in_facts
        if index in out_facts
    }


def must_pass_positions(
    cfg: Cfg,
    is_barrier: Callable[[ast.AST], bool],
) -> dict[tuple[int, int], bool]:
    """All-paths barrier coverage for every element position.

    Returns ``{(block_index, element_index): gated}`` where ``gated``
    means every path from the entry to just *before* that element crosses
    at least one barrier element.
    """
    barrier_positions: dict[int, list[bool]] = {
        block.index: [is_barrier(e) for e in block.elements]
        for block in cfg.reachable_blocks()
    }

    def transfer(block: int, fact: bool) -> bool:
        return fact or any(barrier_positions[block])

    solution = solve(
        cfg,
        boundary=False,
        top=True,
        transfer=transfer,
        join=lambda a, b: a and b,
    )

    positions: dict[tuple[int, int], bool] = {}
    for block in cfg.reachable_blocks():
        fact = solution[block.index][0]
        for index, barrier in enumerate(
            barrier_positions[block.index]
        ):
            positions[(block.index, index)] = fact
            if barrier:
                fact = True
    return positions


def all_paths_cross(
    cfg: Cfg,
    is_barrier: Callable[[ast.AST], bool],
) -> bool:
    """Whether every entry-to-exit path crosses at least one barrier.

    The exit-block variant of :func:`must_pass_positions`: ``True`` when
    no path can run from entry to exit without evaluating a barrier
    element.
    """
    barrier_blocks = {
        block.index: any(is_barrier(e) for e in block.elements)
        for block in cfg.reachable_blocks()
    }
    solution = solve(
        cfg,
        boundary=False,
        top=True,
        transfer=lambda block, fact: fact or barrier_blocks[block],
        join=lambda a, b: a and b,
    )
    return bool(solution[cfg.exit][0])


def find_unguarded_path(
    cfg: Cfg,
    target_block: int,
    target_position: int,
    is_barrier: Callable[[ast.AST], bool],
) -> list[int] | None:
    """A shortest entry-to-target path crossing no barrier, if one exists.

    Used to render *why* a call site is unproven: the returned list of
    block indexes traces one concrete ungated path.  ``None`` when every
    path is gated (or the target is unreachable).
    """
    if target_block not in cfg.reachable:
        return None

    def blocked_before(block: int, upto: int | None) -> bool:
        elements = cfg.blocks[block].elements
        stop = len(elements) if upto is None else upto
        return any(is_barrier(e) for e in elements[:stop])

    # BFS over blocks; a block may be traversed only if it contains no
    # barrier (for the target block, no barrier before the target
    # position).
    from collections import deque

    queue: deque[list[int]] = deque([[cfg.entry]])
    seen = {cfg.entry}
    while queue:
        path = queue.popleft()
        block = path[-1]
        if block == target_block:
            if not blocked_before(block, target_position):
                return path
            continue
        if blocked_before(block, None):
            continue
        for successor in cfg.blocks[block].successors:
            if successor in seen or successor not in cfg.reachable:
                continue
            seen.add(successor)
            queue.append(path + [successor])
    return None
