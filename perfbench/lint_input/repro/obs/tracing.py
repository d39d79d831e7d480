"""Span collection: nested, sim-time aware, worker-mergeable.

A :class:`TraceCollector` hands out :class:`Span` context managers; the
collector keeps an explicit parent stack, so nesting falls out of
``with`` scoping with no thread-locals or global interpreter state.
Finished spans become immutable :class:`SpanRecord`\\ s in *finish*
order (a child always precedes its parent), which is also the order
JSONL export emits.

Two clocks coexist on every record: wall time from
``time.perf_counter`` (for flame views and overhead math) and optional
*sim time* — the simulation's own clock, which is what the
investigation pipeline and chaos harness reason in.

Worker processes can't share a collector, so a worker serialises its
records with :meth:`TraceCollector.export_records` (plain dicts, cheap
to pickle) and the parent re-ingests them with
:meth:`TraceCollector.adopt`, which renumbers span ids into the
parent's id space while preserving the parent/child shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Callable


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (or zero-duration instant event)."""

    span_id: int
    parent_id: int | None
    name: str
    t0: float
    t1: float
    sim_time: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)
    audit: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock duration in seconds (0.0 for instant events)."""
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (one JSONL line)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "dur": self.duration,
            "sim_time": self.sim_time,
            "attrs": self.attrs,
            "audit": self.audit,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> SpanRecord:
        """Inverse of :meth:`to_dict` (used by :meth:`TraceCollector.adopt`)."""
        parent = payload["parent_id"]
        sim_time = payload["sim_time"]
        attrs = payload.get("attrs") or {}
        audit = payload.get("audit") or {}
        assert isinstance(attrs, dict) and isinstance(audit, dict)
        return cls(
            span_id=int(payload["span_id"]),  # type: ignore[call-overload]
            parent_id=None if parent is None else int(parent),  # type: ignore[call-overload]
            name=str(payload["name"]),
            t0=float(payload["t0"]),  # type: ignore[arg-type]
            t1=float(payload["t1"]),  # type: ignore[arg-type]
            sim_time=None if sim_time is None else float(sim_time),  # type: ignore[arg-type]
            attrs=dict(attrs),
            audit=dict(audit),
        )


class NoopSpan:
    """Shared do-nothing span returned whenever telemetry is disabled.

    A single module-level instance (:data:`NOOP_SPAN`) serves every
    disabled call site: entering, exiting, and :meth:`set` all return
    immediately, so the disabled path allocates nothing per call.
    """

    __slots__ = ()

    def __enter__(self) -> NoopSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def set(self, **attrs: object) -> NoopSpan:
        """Ignore attributes; chainable like the live span."""
        return self

    @property
    def duration(self) -> float:
        """Always 0.0; mirrors :attr:`Span.duration`."""
        return 0.0


NOOP_SPAN = NoopSpan()

#: The telemetry layer's wall clock.  Library code that needs a raw
#: duration (the lint runner's per-rule timings) reads it from here so
#: the clock stays owned by ``repro.obs`` — a bare ``time.perf_counter``
#: elsewhere is a REPRO109 finding.
clock: Callable[[], float] = time.perf_counter


class Span:
    """A live span; use as a context manager.

    The span is inert until ``__enter__`` (creating one and discarding
    it records nothing).  Attributes set via :meth:`set` while open are
    attached to the finished record.
    """

    __slots__ = (
        "_collector", "name", "sim_time", "attrs",
        "span_id", "parent_id", "t0", "t1",
    )

    def __init__(
        self,
        collector: TraceCollector,
        name: str,
        sim_time: float | None,
        attrs: dict[str, object],
    ) -> None:
        self._collector = collector
        self.name = name
        self.sim_time = sim_time
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: int | None = None
        self.t0 = 0.0
        self.t1 = 0.0

    def set(self, **attrs: object) -> Span:
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        """Wall-clock duration; valid once the span has closed."""
        return self.t1 - self.t0

    def __enter__(self) -> Span:
        self._collector._open(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._collector._close(self)
        return None


class TraceCollector:
    """Accumulates finished spans and instant events.

    Args:
        clock: Wall-clock source; injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._next_id = 1
        self._stack: list[Span] = []
        self._audit_stack: list[dict[str, object]] = []
        self.spans: list[SpanRecord] = []

    # -- span lifecycle -------------------------------------------------

    def span(
        self,
        name: str,
        sim_time: float | None = None,
        **attrs: object,
    ) -> Span:
        """A new span context manager, child of the innermost open span."""
        return Span(self, name, sim_time, attrs)

    def event(
        self,
        name: str,
        sim_time: float | None = None,
        **attrs: object,
    ) -> SpanRecord:
        """Record a zero-duration instant event under the open span."""
        now = self._clock()
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            t0=now,
            t1=now,
            sim_time=sim_time,
            attrs=attrs,
            audit=self.current_audit(),
        )
        self._next_id += 1
        self.spans.append(record)
        return record

    def _open(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        span.t0 = self._clock()

    def _close(self, span: Span) -> None:
        span.t1 = self._clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order; spans must nest"
            )
        self._stack.pop()
        self.spans.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                t0=span.t0,
                t1=span.t1,
                sim_time=span.sim_time,
                attrs=span.attrs,
                audit=self.current_audit(),
            )
        )

    # -- audit frames ---------------------------------------------------

    def push_audit(self, frame: dict[str, object]) -> None:
        """Push an audit frame; spans finished under it are stamped."""
        merged = dict(self._audit_stack[-1]) if self._audit_stack else {}
        merged.update(frame)
        self._audit_stack.append(merged)

    def pop_audit(self) -> None:
        self._audit_stack.pop()

    def current_audit(self) -> dict[str, object]:
        """The audit fields in scope right now (a copy; {} outside any)."""
        return dict(self._audit_stack[-1]) if self._audit_stack else {}

    # -- merge / export -------------------------------------------------

    def export_records(self) -> list[dict[str, object]]:
        """Finished spans as plain dicts — picklable, JSON-ready."""
        return [record.to_dict() for record in self.spans]

    def adopt(
        self,
        records: list[dict[str, object]],
        parent_id: int | None = None,
    ) -> None:
        """Re-ingest records exported by another collector.

        Span ids are renumbered into this collector's id space; the
        relative parent/child shape is preserved.  Root spans of the
        adopted batch are re-parented under ``parent_id`` (or the
        currently open span when ``None`` and one is open).
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        parsed = [SpanRecord.from_dict(payload) for payload in records]
        # Records arrive in finish order (children before parents), so
        # assign every new id before resolving any parent reference.
        id_map: dict[int, int] = {}
        for record in parsed:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        for record in parsed:
            new_parent = (
                id_map.get(record.parent_id, parent_id)
                if record.parent_id is not None
                else parent_id
            )
            self.spans.append(
                SpanRecord(
                    span_id=id_map[record.span_id],
                    parent_id=new_parent,
                    name=record.name,
                    t0=record.t0,
                    t1=record.t1,
                    sim_time=record.sim_time,
                    attrs=record.attrs,
                    audit=record.audit,
                )
            )
