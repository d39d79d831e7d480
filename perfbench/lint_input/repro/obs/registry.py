"""Metric instruments and the registry that renders them.

Three instrument kinds cover everything the reproduction needs to
expose: monotonically increasing :class:`Counter`\\ s, free-moving
:class:`Gauge`\\ s (including callback gauges evaluated lazily at render
time, which is how the :class:`~repro.core.cache.RulingCache` counters
are absorbed without touching the cache's hot path), and fixed-bucket
:class:`Histogram`\\ s with p50/p95/p99 extraction.

The registry renders Prometheus-style text exposition
(``# HELP`` / ``# TYPE`` headers, ``{label="value"}`` sample lines,
cumulative ``_bucket{le=...}`` series) so a future ``repro serve``
``/metrics`` endpoint can return :meth:`MetricsRegistry.render_text`
verbatim.  Everything here is pure stdlib — the package imports nothing
from the rest of ``repro`` so any module can import it without cycles.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterator, Sequence

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Default histogram bucket upper bounds (seconds): 100 ns .. 10 s in a
#: 1-2.5-5 ladder.  The sub-microsecond decade exists because cached
#: rulings complete in ~2 µs and cached *lookups* in well under 1 µs —
#: without it every hot-path observation lands in the lowest bucket and
#: p50 collapses to the bucket edge instead of interpolating.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-7, 2.5e-7, 5e-7,
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict[str, object]) -> LabelKey:
    """Canonical hashable key for a label set (sorted by label name)."""
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_sample(
    name: str, labels: LabelKey, value: float, extra: str = ""
) -> str:
    rendered = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        rendered.append(extra)
    label_part = "{" + ",".join(rendered) + "}" if rendered else ""
    if value == math.inf:
        text = "+Inf"
    elif value == int(value) and abs(value) < 1e15:
        text = str(int(value))
    else:
        text = repr(value)
    return f"{name}{label_part} {text}"


class Counter:
    """A monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Increase the counter; ``amount`` must be non-negative."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value for a label set (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[str]:
        for key in sorted(self._values):
            yield _format_sample(self.name, key, self._values[key])


class Gauge:
    """A value that can go up and down, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[str]:
        for key in sorted(self._values):
            yield _format_sample(self.name, key, self._values[key])


class CallbackGauge:
    """A gauge whose values are read from callables at render time.

    This is the zero-hot-path-cost absorption mechanism: binding the
    ruling cache's hit counter costs one closure here and nothing per
    cache operation.  One instrument holds one callback *per label set*,
    so N server shards can each bind their private cache under the same
    metric name with a distinguishing ``shard`` label — re-binding an
    existing label set replaces that callback only.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        fn: Callable[[], float],
        help_text: str = "",
        labels: dict[str, object] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self._callbacks: dict[LabelKey, Callable[[], float]] = {
            _label_key(labels or {}): fn
        }

    def add_callback(
        self,
        fn: Callable[[], float],
        labels: dict[str, object] | None = None,
    ) -> None:
        """Bind ``fn`` under ``labels``, replacing any same-labelled one."""
        self._callbacks[_label_key(labels or {})] = fn

    def value(self, **labels: object) -> float:
        """The live value for a label set (the sole one when unlabelled)."""
        key = _label_key(labels)
        if key not in self._callbacks and not labels:
            if len(self._callbacks) != 1:
                raise KeyError(
                    f"callback gauge {self.name!r} has "
                    f"{len(self._callbacks)} label sets; specify one"
                )
            key = next(iter(self._callbacks))
        return float(self._callbacks[key]())

    def samples(self) -> Iterator[str]:
        for key in sorted(self._callbacks):
            yield _format_sample(
                self.name, key, float(self._callbacks[key]())
            )


class Histogram:
    """A fixed-bucket histogram with quantile extraction.

    Observations are counted into cumulative-style buckets keyed by
    upper bound; quantiles are recovered by linear interpolation inside
    the bucket containing the target rank, so the error of
    :meth:`quantile` against an exact per-sample quantile is bounded by
    the width of that bucket.  Min and max are tracked exactly, which
    pins the interpolation at both tails.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # + overflow
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        lo, hi = 0, len(self._bounds)
        while lo < hi:  # bisect over bounds: first bound >= value
            mid = (lo + hi) // 2
            if self._bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self._bucket_counts[lo] += 1
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (q in [0, 1]) by in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        if q == 0.0:
            return self._min
        target = q * self._count
        cumulative = 0
        previous_bound = self._min
        for index, bucket_count in enumerate(self._bucket_counts):
            if bucket_count:
                upper = (
                    self._bounds[index]
                    if index < len(self._bounds)
                    else self._max
                )
                lower = max(previous_bound, self._min)
                upper = min(upper, self._max)
                if cumulative + bucket_count >= target:
                    fraction = (target - cumulative) / bucket_count
                    return lower + (upper - lower) * fraction
                cumulative += bucket_count
            if index < len(self._bounds):
                previous_bound = self._bounds[index]
        return self._max

    def percentiles(self) -> dict[str, float]:
        """The conventional p50/p95/p99 summary."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def samples(self) -> Iterator[str]:
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, self._bucket_counts):
            cumulative += bucket_count
            yield _format_sample(
                f"{self.name}_bucket", (), float(cumulative),
                extra=f'le="{bound!r}"',
            )
        yield _format_sample(
            f"{self.name}_bucket", (), float(self._count), extra='le="+Inf"'
        )
        yield _format_sample(f"{self.name}_sum", (), self._sum)
        yield _format_sample(f"{self.name}_count", (), float(self._count))


Metric = Counter | Gauge | CallbackGauge | Histogram


class MetricsRegistry:
    """Named home for instruments plus the text exposition renderer.

    Instruments are created on first use (``registry.counter(name)``
    returns the existing counter on later calls), so instrumented code
    never has to coordinate declaration order.  Re-requesting a name as
    a different instrument kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(
        self, name: str, factory: Callable[[], Metric], kind: type
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._get_or_create(
            name, lambda: Counter(name, help_text), Counter
        )
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._get_or_create(
            name, lambda: Gauge(name, help_text), Gauge
        )
        assert isinstance(metric, Gauge)
        return metric

    def gauge_fn(
        self,
        name: str,
        fn: Callable[[], float],
        help_text: str = "",
        labels: dict[str, object] | None = None,
    ) -> CallbackGauge:
        """Register a callback gauge series read at render time.

        A repeat call with the same name and a *new* label set adds a
        series to the existing instrument; the same label set replaces
        that series' callback.  This is what lets every server shard
        export its private cache counters under one metric name.
        """
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, CallbackGauge):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not CallbackGauge"
                )
            existing.add_callback(fn, labels)
            if help_text and not existing.help_text:
                existing.help_text = help_text
            return existing
        gauge = CallbackGauge(name, fn, help_text, labels)
        self._metrics[name] = gauge
        return gauge

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets), Histogram
        )
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Metric | None:
        """The registered instrument under ``name``, if any."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def render_text(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            help_text = getattr(metric, "help_text", "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + ("\n" if lines else "")
