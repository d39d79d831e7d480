"""Control-flow graphs over Python function bodies.

A :class:`Cfg` is a list of basic blocks.  Each block holds *elements* —
the AST nodes evaluated in that block, in evaluation order: plain
statements appear as themselves, and a compound statement contributes
the expression actually evaluated at the branch point (an ``if``'s or
``while``'s test, a ``for``'s iterable and target, a ``with``'s context
expressions) to the block that ends with the branch.

The builder models:

* ``if``/``elif``/``else`` — branch and join;
* ``while``/``for`` with ``else`` — the else clause runs only on normal
  loop exit, ``break`` skips it (real Python semantics);
* ``break``/``continue``/``return``/``raise`` — abrupt edges;
* ``try``/``except``/``else``/``finally`` — every block built inside the
  ``try`` body gets an exceptional edge to each handler; ``return`` and
  ``raise`` crossing a ``finally`` are routed through it;
* ``with`` (and ``async with``) — context expressions evaluate in line;
* ``match`` — one branch per case, with a fall-through edge unless a
  wildcard case exists.

Deliberate approximations, all conservative for the must-pass analyses
built on top (they can only *add* paths, never hide one): exceptions may
enter a handler from any block of the ``try`` body regardless of
position within the block; abrupt exits route through the nearest
enclosing ``finally`` only; ``break``/``continue`` do not detour through
``finally`` bodies.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterator

#: Statements that open a new code object; element walks stop at them.
_NEW_SCOPE_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Lambda,
)


def iter_element_nodes(element: ast.AST) -> Iterator[ast.AST]:
    """Walk one block element without descending into nested scopes.

    Yields the element itself and its descendants, but a nested function,
    class, or lambda is yielded as a single node — its body belongs to a
    different CFG.
    """
    stack: list[ast.AST] = [element]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NEW_SCOPE_NODES):
            # The body belongs to another scope, but decorators and
            # parameter defaults evaluate here.
            for decorator in getattr(node, "decorator_list", []):
                stack.append(decorator)
            arguments = getattr(node, "args", None)
            if isinstance(arguments, ast.arguments):
                stack.extend(
                    d for d in arguments.defaults if d is not None
                )
                stack.extend(
                    d for d in arguments.kw_defaults if d is not None
                )
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


@dataclasses.dataclass
class CfgBlock:
    """One basic block.

    Attributes:
        index: Position in :attr:`Cfg.blocks` (block ids are indexes).
        label: Structural role, for rendering and debugging.
        elements: AST nodes evaluated in this block, in order.
        successors: Indexes of successor blocks (no duplicates).
        predecessors: Indexes of predecessor blocks (filled at seal).
    """

    index: int
    label: str
    elements: list[ast.AST] = dataclasses.field(default_factory=list)
    successors: list[int] = dataclasses.field(default_factory=list)
    predecessors: list[int] = dataclasses.field(default_factory=list)

    def first_line(self) -> int | None:
        """Line of the first element carrying a location, if any."""
        for element in self.elements:
            line = getattr(element, "lineno", None)
            if line is not None:
                return int(line)
        return None


@dataclasses.dataclass
class Cfg:
    """A control-flow graph for one function (or module) body."""

    blocks: list[CfgBlock]
    entry: int
    exit: int
    reachable: frozenset[int]

    def block(self, index: int) -> CfgBlock:
        """The block with the given index."""
        return self.blocks[index]

    def reachable_blocks(self) -> list[CfgBlock]:
        """Reachable blocks, in index order."""
        return [b for b in self.blocks if b.index in self.reachable]


@dataclasses.dataclass
class _Frame:
    """One entry of the builder's nesting stack (a loop or a try)."""

    kind: str  # "loop" | "try"
    # Loop frames:
    continue_target: int = -1
    break_sources: list[int] = dataclasses.field(default_factory=list)
    # Try frames:
    handler_entries: list[int] = dataclasses.field(default_factory=list)
    finally_entry: int = -1
    finally_out: list[int] = dataclasses.field(default_factory=list)
    body_blocks: list[int] = dataclasses.field(default_factory=list)


class _Builder:
    """Single-use CFG builder for one statement list."""

    def __init__(self) -> None:
        self.blocks: list[CfgBlock] = []
        self.exit_sources: list[int] = []
        self.frames: list[_Frame] = []
        self.current = self.new_block("entry")

    # -- plumbing ---------------------------------------------------------------

    def new_block(self, label: str) -> int:
        block = CfgBlock(index=len(self.blocks), label=label)
        self.blocks.append(block)
        self._record_try_block(block.index)
        return block.index

    def _record_try_block(self, index: int) -> None:
        for frame in reversed(self.frames):
            if frame.kind == "try" and frame.handler_entries:
                frame.body_blocks.append(index)
                # Only the innermost handler-bearing try catches first.
                return

    def edge(self, a: int, b: int) -> None:
        if b not in self.blocks[a].successors:
            self.blocks[a].successors.append(b)

    def add(self, element: ast.AST) -> None:
        self.blocks[self.current].elements.append(element)

    def to_exit(self, source: int) -> None:
        if source not in self.exit_sources:
            self.exit_sources.append(source)

    def start_block(self, label: str, *preds: int) -> int:
        index = self.new_block(label)
        for pred in preds:
            self.edge(pred, index)
        self.current = index
        return index

    # -- abrupt-exit routing ----------------------------------------------------

    def _route_through_finally(self, real_target: str | int) -> bool:
        """Route an abrupt exit via the nearest ``finally``, if any.

        ``real_target`` is either a block index or the string ``"exit"``;
        it is registered as an out-edge of that finally region.  Returns
        whether a finally intercepted the exit.
        """
        for frame in reversed(self.frames):
            if frame.kind == "try" and frame.finally_entry >= 0:
                self.edge(self.current, frame.finally_entry)
                if real_target not in frame.finally_out:
                    frame.finally_out.append(real_target)  # type: ignore[arg-type]
                return True
        return False

    def do_return(self, node: ast.stmt) -> None:
        self.add(node)
        if not self._route_through_finally("exit"):
            self.to_exit(self.current)
        self.start_block("unreachable")

    def do_raise(self, node: ast.stmt) -> None:
        self.add(node)
        routed = False
        for frame in reversed(self.frames):
            if frame.kind != "try":
                continue
            if frame.handler_entries:
                for handler in frame.handler_entries:
                    self.edge(self.current, handler)
                routed = True
                break
            if frame.finally_entry >= 0:
                self.edge(self.current, frame.finally_entry)
                if "exit" not in frame.finally_out:
                    frame.finally_out.append("exit")  # type: ignore[arg-type]
                routed = True
                break
        if not routed:
            self.to_exit(self.current)
        self.start_block("unreachable")

    def nearest_loop(self) -> _Frame | None:
        for frame in reversed(self.frames):
            if frame.kind == "loop":
                return frame
        return None

    # -- statement dispatch -----------------------------------------------------

    def build_body(self, body: list[ast.stmt]) -> None:
        for statement in body:
            self.build_statement(statement)

    def build_statement(self, node: ast.stmt) -> None:
        # Inside a handler-bearing try, every statement opens a fresh
        # block: the exceptional edge to a handler must not carry facts
        # established by statements after the one that raised.
        if self.blocks[self.current].elements and any(
            frame.kind == "try" and frame.handler_entries
            for frame in self.frames
        ):
            self.start_block(self.blocks[self.current].label, self.current)
        if isinstance(node, ast.If):
            self._build_if(node)
        elif isinstance(node, (ast.While,)):
            self._build_while(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._build_for(node)
        elif isinstance(node, ast.Try):
            self._build_try(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._build_with(node)
        elif isinstance(node, ast.Match):
            self._build_match(node)
        elif isinstance(node, ast.Return):
            self.do_return(node)
        elif isinstance(node, ast.Raise):
            self.do_raise(node)
        elif isinstance(node, ast.Break):
            self.add(node)
            loop = self.nearest_loop()
            if loop is not None:
                loop.break_sources.append(self.current)
            self.start_block("unreachable")
        elif isinstance(node, ast.Continue):
            self.add(node)
            loop = self.nearest_loop()
            if loop is not None:
                self.edge(self.current, loop.continue_target)
            self.start_block("unreachable")
        else:
            self.add(node)

    # -- compound statements ----------------------------------------------------

    def _build_if(self, node: ast.If) -> None:
        self.add(node.test)
        test_block = self.current
        then_entry = self.start_block("then", test_block)
        self.build_body(node.body)
        then_exit = self.current
        if node.orelse:
            else_entry = self.new_block("else")
            self.edge(test_block, else_entry)
            self.current = else_entry
            self.build_body(node.orelse)
            else_exit = self.current
            after = self.start_block("after-if", then_exit, else_exit)
        else:
            after = self.start_block("after-if", test_block, then_exit)
        del then_entry, after

    def _build_while(self, node: ast.While) -> None:
        head = self.start_block("loop-head", self.current)
        self.add(node.test)
        frame = _Frame(kind="loop", continue_target=head)
        self.frames.append(frame)
        self.start_block("loop-body", head)
        self.build_body(node.body)
        self.edge(self.current, head)
        self.frames.pop()
        if node.orelse:
            self.start_block("loop-else", head)
            self.build_body(node.orelse)
            after = self.start_block("after-loop", self.current)
        else:
            after = self.start_block("after-loop", head)
        for source in frame.break_sources:
            self.edge(source, after)

    def _build_for(self, node: ast.For | ast.AsyncFor) -> None:
        head = self.start_block("loop-head", self.current)
        self.add(node.iter)
        self.add(node.target)
        frame = _Frame(kind="loop", continue_target=head)
        self.frames.append(frame)
        self.start_block("loop-body", head)
        self.build_body(node.body)
        self.edge(self.current, head)
        self.frames.pop()
        if node.orelse:
            self.start_block("loop-else", head)
            self.build_body(node.orelse)
            after = self.start_block("after-loop", self.current)
        else:
            after = self.start_block("after-loop", head)
        for source in frame.break_sources:
            self.edge(source, after)

    def _build_try(self, node: ast.Try) -> None:
        frame = _Frame(kind="try")
        # Create handler entry blocks up front so raises inside the body
        # (and the exceptional edges) have somewhere to land.
        handler_entries: list[int] = []
        for handler in node.handlers:
            entry = self.new_block("except")
            if handler.type is not None:
                self.blocks[entry].elements.append(handler.type)
            handler_entries.append(entry)
        frame.handler_entries = handler_entries
        if node.finalbody:
            frame.finally_entry = self.new_block("finally")

        self.frames.append(frame)
        self.start_block("try", *(self.current,))
        self.build_body(node.body)
        body_exit = self.current
        # Exceptional edges: any block built inside the try body may jump
        # to any handler.
        for block_index in frame.body_blocks:
            for handler in handler_entries:
                self.edge(block_index, handler)
        # Stop collecting before building the handlers themselves.
        self.frames.pop()

        normal_exits: list[int] = []
        if node.orelse:
            self.start_block("try-else", body_exit)
            self.build_body(node.orelse)
            normal_exits.append(self.current)
        else:
            normal_exits.append(body_exit)

        outer_frame = (
            _Frame(kind="try", finally_entry=frame.finally_entry)
            if node.finalbody
            else None
        )
        if outer_frame is not None:
            # Abrupt exits from the handlers still cross the finally.
            self.frames.append(outer_frame)
        for handler, entry in zip(node.handlers, handler_entries):
            self.current = entry
            self.build_body(handler.body)
            normal_exits.append(self.current)
        if outer_frame is not None:
            self.frames.pop()
            frame.finally_out.extend(
                target
                for target in outer_frame.finally_out
                if target not in frame.finally_out
            )

        if node.finalbody:
            finally_entry = frame.finally_entry
            for source in normal_exits:
                self.edge(source, finally_entry)
            self.current = finally_entry
            self.build_body(node.finalbody)
            finally_exit = self.current
            after = self.start_block("after-try", finally_exit)
            for target in frame.finally_out:
                if target == "exit":
                    self.to_exit(finally_exit)
                else:
                    self.edge(finally_exit, int(target))
        else:
            after = self.start_block("after-try", *normal_exits)
        del after

    def _build_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            self.add(item.context_expr)
            if item.optional_vars is not None:
                self.add(item.optional_vars)
        self.start_block("with-body", self.current)
        self.build_body(node.body)
        self.start_block("after-with", self.current)

    def _build_match(self, node: ast.Match) -> None:
        self.add(node.subject)
        subject_block = self.current
        case_exits: list[int] = []
        has_wildcard = False
        for case in node.cases:
            self.start_block("case", subject_block)
            if case.guard is not None:
                self.add(case.guard)
            self.build_body(case.body)
            case_exits.append(self.current)
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                has_wildcard = True
        preds = case_exits if has_wildcard else [subject_block, *case_exits]
        self.start_block("after-match", *preds)

    # -- finish -----------------------------------------------------------------

    def finish(self) -> Cfg:
        self.to_exit(self.current)
        exit_index = self.new_block("exit")
        for source in self.exit_sources:
            self.edge(source, exit_index)
        for block in self.blocks:
            for successor in block.successors:
                if block.index not in self.blocks[successor].predecessors:
                    self.blocks[successor].predecessors.append(block.index)
        return Cfg(
            blocks=self.blocks,
            entry=0,
            exit=exit_index,
            reachable=_reachable_from(self.blocks, 0),
        )


def _reachable_from(blocks: list[CfgBlock], entry: int) -> frozenset[int]:
    seen: set[int] = set()
    stack = [entry]
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        stack.extend(blocks[index].successors)
    return frozenset(seen)


def build_cfg(
    function: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> Cfg:
    """Build the CFG of a function (or module) body."""
    return build_statements_cfg(list(function.body))


def build_statements_cfg(statements: list[ast.stmt]) -> Cfg:
    """Build a CFG over a bare statement list.

    Used for sub-graphs that are not whole functions — for example an
    ``except`` handler body, when a rule needs "on every path through
    this handler" semantics.
    """
    builder = _Builder()
    builder.build_body(statements)
    return builder.finish()


def _describe(element: ast.AST) -> str:
    line = getattr(element, "lineno", "?")
    try:
        text = ast.unparse(element)
    except Exception:  # pragma: no cover - unparse covers all our nodes
        text = type(element).__name__
    text = " ".join(text.split())
    if len(text) > 48:
        text = text[:45] + "..."
    return f"L{line}:{text}"


def render_cfg(cfg: Cfg, include_unreachable: bool = False) -> str:
    """A stable text rendering, for golden tests and debugging."""
    lines: list[str] = []
    for block in cfg.blocks:
        if not include_unreachable and block.index not in cfg.reachable:
            continue
        elements = "; ".join(_describe(e) for e in block.elements)
        successors = ", ".join(f"b{s}" for s in block.successors)
        suffix = f" -> {successors}" if successors else ""
        body = f" {elements}" if elements else ""
        lines.append(f"b{block.index}[{block.label}]{body}{suffix}")
    return "\n".join(lines)
