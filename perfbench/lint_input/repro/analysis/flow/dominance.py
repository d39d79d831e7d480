"""Dominance computation over a :class:`~repro.analysis.flow.cfg.Cfg`.

Implements the Cooper–Harvey–Kennedy iterative algorithm: immediate
dominators converge in a few passes over the reverse postorder, and the
full dominator sets / tree / back edges are derived from them.  Only
blocks reachable from the entry participate; unreachable blocks have no
dominator information.
"""

from __future__ import annotations

from repro.analysis.flow.cfg import Cfg


def _reverse_postorder(cfg: Cfg) -> list[int]:
    order: list[int] = []
    seen: set[int] = set()

    def visit(start: int) -> None:
        # Iterative DFS with an explicit done-marker, so deep CFGs do
        # not hit the recursion limit.
        stack: list[tuple[int, bool]] = [(start, False)]
        while stack:
            index, done = stack.pop()
            if done:
                order.append(index)
                continue
            if index in seen:
                continue
            seen.add(index)
            stack.append((index, True))
            for successor in reversed(cfg.blocks[index].successors):
                if successor not in seen:
                    stack.append((successor, False))

    visit(cfg.entry)
    order.reverse()
    return order


def immediate_dominators(cfg: Cfg) -> dict[int, int | None]:
    """Immediate dominator of every reachable block (entry maps to None)."""
    order = _reverse_postorder(cfg)
    position = {block: i for i, block in enumerate(order)}
    idom: dict[int, int | None] = {cfg.entry: None}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                parent = idom[a]
                assert parent is not None
                a = parent
            while position[b] > position[a]:
                parent = idom[b]
                assert parent is not None
                b = parent
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if block == cfg.entry:
                continue
            candidates = [
                p
                for p in cfg.blocks[block].predecessors
                if p in idom
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(block) != new_idom:
                idom[block] = new_idom
                changed = True
    return idom


def dominator_sets(cfg: Cfg) -> dict[int, frozenset[int]]:
    """The full dominator set of every reachable block (including itself)."""
    idom = immediate_dominators(cfg)
    sets: dict[int, frozenset[int]] = {}

    def doms(block: int) -> frozenset[int]:
        cached = sets.get(block)
        if cached is not None:
            return cached
        parent = idom.get(block)
        result = (
            frozenset({block})
            if parent is None
            else doms(parent) | {block}
        )
        sets[block] = result
        return result

    for block in idom:
        doms(block)
    return sets


def dominates(
    idom: dict[int, int | None], dominator: int, block: int
) -> bool:
    """Whether ``dominator`` dominates ``block`` under the given idoms."""
    current: int | None = block
    while current is not None:
        if current == dominator:
            return True
        current = idom.get(current)
    return False


def dominator_tree_children(
    idom: dict[int, int | None],
) -> dict[int, list[int]]:
    """Children lists of the dominator tree, sorted for determinism."""
    children: dict[int, list[int]] = {block: [] for block in idom}
    for block, parent in idom.items():
        if parent is not None:
            children[parent].append(block)
    for block in children:
        children[block].sort()
    return children


def back_edges(cfg: Cfg) -> list[tuple[int, int]]:
    """Edges ``u -> v`` where ``v`` dominates ``u`` (loop back edges)."""
    idom = immediate_dominators(cfg)
    edges: list[tuple[int, int]] = []
    for block in cfg.reachable_blocks():
        for successor in block.successors:
            if successor in idom and dominates(
                idom, successor, block.index
            ):
                edges.append((block.index, successor))
    return edges


def natural_loop(cfg: Cfg, tail: int, head: int) -> frozenset[int]:
    """The natural loop of back edge ``tail -> head``.

    All blocks that can reach ``tail`` without passing through ``head``,
    plus ``head`` itself.
    """
    loop: set[int] = {head, tail}
    stack = [tail]
    while stack:
        block = stack.pop()
        for predecessor in cfg.blocks[block].predecessors:
            if (
                predecessor not in loop
                and predecessor in cfg.reachable
            ):
                loop.add(predecessor)
                stack.append(predecessor)
    return frozenset(loop)
