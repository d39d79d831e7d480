"""Zero-dependency telemetry for the reproduction.

Disabled by default, with a guaranteed near-zero cost when off:

* Hot paths (the compliance engine) guard on the module-level
  ``OBS.enabled`` flag before building any span arguments, so the
  disabled cost is one attribute load and a branch — no dict, no call.
* Warm paths call :func:`span` / :func:`audit` directly; when disabled
  these return module-level no-op singletons without touching a
  collector.

Enable around a workload to collect::

    from repro import obs

    collector = obs.enable()
    ...                         # instrumented code records spans
    obs.disable()
    print(obs.export.to_jsonl(collector.spans))

The package imports nothing from the rest of ``repro`` — any module
(including :mod:`repro.core`) can import it without cycles.  Cache
counters are absorbed through the duck-typed :func:`bind_ruling_cache`
rather than an import of :mod:`repro.core.cache`.
"""

from __future__ import annotations

from types import TracebackType
from typing import Protocol

from repro.obs import export
from repro.obs.audit import (
    ACQUISITION_SPAN,
    acquisition_spans,
    render_audit_report,
    unauthorized_acquisitions,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    SpanRecord,
    TraceCollector,
    clock,
)


class ObsState:
    """The process-wide telemetry switch and its attached sinks."""

    __slots__ = ("enabled", "collector", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.collector: TraceCollector | None = None
        self.registry = MetricsRegistry()


#: Module-level state; instrumented code reads ``OBS.enabled`` directly.
OBS = ObsState()


def enable(collector: TraceCollector | None = None) -> TraceCollector:
    """Turn telemetry on; returns the active collector.

    Passing a collector adopts it; otherwise the current one is kept if
    present, or a fresh one created.
    """
    if collector is not None:
        OBS.collector = collector
    elif OBS.collector is None:
        OBS.collector = TraceCollector()
    OBS.enabled = True
    return OBS.collector


def disable() -> TraceCollector | None:
    """Turn telemetry off; returns the collector with what it gathered."""
    OBS.enabled = False
    collector, OBS.collector = OBS.collector, None
    return collector


def reset() -> None:
    """Disable and discard all collected spans and metrics."""
    OBS.enabled = False
    OBS.collector = None
    OBS.registry = MetricsRegistry()


def span(
    name: str, sim_time: float | None = None, **attrs: object
) -> Span | NoopSpan:
    """A span context manager, or the shared no-op when disabled."""
    if not OBS.enabled or OBS.collector is None:
        return NOOP_SPAN
    return OBS.collector.span(name, sim_time, **attrs)


def event(
    name: str, sim_time: float | None = None, **attrs: object
) -> SpanRecord | None:
    """Record an instant event; no-op (returns None) when disabled."""
    if not OBS.enabled or OBS.collector is None:
        return None
    return OBS.collector.event(name, sim_time, **attrs)


class _AuditScope:
    """Context manager pushing one audit frame on the active collector."""

    __slots__ = ("_frame",)

    def __init__(self, frame: dict[str, object]) -> None:
        self._frame = frame

    def __enter__(self) -> _AuditScope:
        collector = OBS.collector
        if collector is not None:
            collector.push_audit(self._frame)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        collector = OBS.collector
        if collector is not None:
            collector.pop_audit()
        return None


class _NoopAuditScope:
    __slots__ = ()

    def __enter__(self) -> _NoopAuditScope:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NOOP_AUDIT = _NoopAuditScope()


def audit(**fields: object) -> _AuditScope | _NoopAuditScope:
    """Stamp spans finished inside the scope with the given audit fields.

    ``None``-valued fields are dropped; nested scopes merge, inner wins.
    """
    if not OBS.enabled or OBS.collector is None:
        return _NOOP_AUDIT
    return _AuditScope(
        {key: value for key, value in fields.items() if value is not None}
    )


class CacheStatsLike(Protocol):
    """What :func:`bind_ruling_cache` needs from a stats object."""

    hits: int
    misses: int
    evictions: int


def bind_ruling_cache(
    stats: CacheStatsLike, name: str = "engine"
) -> None:
    """Absorb ruling-cache counters into the registry as callback gauges.

    Duck-typed on the stats object so :mod:`repro.obs` never imports
    :mod:`repro.core`; the cache pays nothing per operation — values are
    read only when the registry renders.
    """
    labels: dict[str, object] = {"cache": name}
    OBS.registry.gauge_fn(
        "repro_ruling_cache_hits",
        lambda: float(stats.hits),
        "Ruling cache hits since cache creation.",
        labels,
    )
    OBS.registry.gauge_fn(
        "repro_ruling_cache_misses",
        lambda: float(stats.misses),
        "Ruling cache misses since cache creation.",
        labels,
    )
    OBS.registry.gauge_fn(
        "repro_ruling_cache_evictions",
        lambda: float(stats.evictions),
        "Ruling cache LRU evictions since cache creation.",
        labels,
    )


class LedgerStatsLike(Protocol):
    """What :func:`bind_ledger` needs from a ledger stats object."""

    ruling_writes: int
    ruling_duplicates: int
    primed_rulings: int


def bind_ledger(stats: LedgerStatsLike, name: str = "ledger") -> None:
    """Absorb ledger session counters into the registry as gauges.

    Duck-typed on the stats object so :mod:`repro.obs` never imports
    :mod:`repro.ledger`; like :func:`bind_ruling_cache`, the ledger pays
    nothing per write — values are read only when the registry renders.
    """
    labels: dict[str, object] = {"ledger": name}
    OBS.registry.gauge_fn(
        "repro_ledger_ruling_writes",
        lambda: float(stats.ruling_writes),
        "Fresh rulings this ledger handle inserted.",
        labels,
    )
    OBS.registry.gauge_fn(
        "repro_ledger_ruling_duplicates",
        lambda: float(stats.ruling_duplicates),
        "Ruling writes skipped as already present.",
        labels,
    )
    OBS.registry.gauge_fn(
        "repro_ledger_primed_rulings",
        lambda: float(stats.primed_rulings),
        "Rulings streamed out of the ledger to warm a cache.",
        labels,
    )


__all__ = [
    "ACQUISITION_SPAN",
    "DEFAULT_BUCKETS",
    "CallbackGauge",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NoopSpan",
    "OBS",
    "ObsState",
    "Span",
    "SpanRecord",
    "TraceCollector",
    "acquisition_spans",
    "audit",
    "bind_ledger",
    "bind_ruling_cache",
    "clock",
    "disable",
    "enable",
    "event",
    "export",
    "render_audit_report",
    "reset",
    "span",
    "unauthorized_acquisitions",
]
