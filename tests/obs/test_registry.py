"""Metrics registry: instrument semantics, quantiles, and exposition."""

import math
import statistics

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments_and_reads(self):
        counter = Counter("repro_things_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_rejects_negative_increment(self):
        counter = Counter("repro_things_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_labelled_series_are_independent(self):
        counter = Counter("repro_things_total")
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1.0
        assert counter.value(kind="b") == 3.0
        assert counter.value(kind="c") == 0.0

    def test_rejects_invalid_metric_name(self):
        with pytest.raises(ValueError):
            Counter("kebab-case-name")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_depth")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value() == 7.0


class TestHistogramQuantiles:
    def test_matches_statistics_quantiles_within_bucket_width(self):
        # Uniform samples over (0, 1): every populated bucket is at most
        # DEFAULT_BUCKETS-spaced, so interpolation error is bounded by
        # the widest populated bucket's width.
        histogram = Histogram("repro_latency_seconds")
        samples = [(i % 997) / 997.0 + 0.0005 for i in range(2000)]
        for value in samples:
            histogram.observe(value)
        exact = statistics.quantiles(samples, n=100, method="inclusive")
        widest = max(
            b - a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
            if a <= 1.0
        )
        for q, reference in ((0.50, exact[49]), (0.95, exact[94]), (0.99, exact[98])):
            assert abs(histogram.quantile(q) - reference) <= widest

    def test_min_and_max_pin_the_tails(self):
        histogram = Histogram("repro_latency_seconds", buckets=[10.0])
        for value in (0.25, 0.5, 0.75):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.25
        assert histogram.quantile(1.0) == 0.75

    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(Histogram("repro_empty").quantile(0.5))

    def test_percentiles_keys(self):
        histogram = Histogram("repro_latency_seconds")
        histogram.observe(0.5)
        assert set(histogram.percentiles()) == {"p50", "p95", "p99"}

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            Histogram("repro_x").quantile(1.5)


class TestHistogramBatchObserve:
    #: (value, count) batches, as a shard worker records them: one
    #: per-action latency repeated once per action in the batch.
    BATCHES = [(3e-6, 250), (1.7e-5, 1), (0.0042, 4096), (2.5, 7), (3e-6, 9)]

    def _pair(self) -> tuple[Histogram, Histogram]:
        batched = Histogram("repro_batched_seconds")
        single = Histogram("repro_single_seconds")
        for value, count in self.BATCHES:
            batched.observe(value, count=count)
            for _ in range(count):
                single.observe(value)
        return batched, single

    def test_equals_n_single_observations(self):
        batched, single = self._pair()
        assert batched._bucket_counts == single._bucket_counts
        assert batched.count == single.count
        assert batched.sum == pytest.approx(single.sum, rel=1e-12)
        for q in (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert batched.quantile(q) == single.quantile(q)

    def test_exposition_matches_except_for_the_name(self):
        batched, single = self._pair()
        rendered = [
            line.split(" ")[0].replace("batched", "single")
            for line in batched.samples()
        ]
        assert rendered == [line.split(" ")[0] for line in single.samples()]
        # Bucket and _count sample values are integers: exactly equal.
        for mine, theirs in zip(batched.samples(), single.samples()):
            if "_sum" not in mine:
                assert mine.split(" ")[1] == theirs.split(" ")[1]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_a_total") is registry.counter(
            "repro_a_total"
        )

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total")
        with pytest.raises(TypeError):
            registry.gauge("repro_a_total")

    def test_render_text_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_evals_total", "Total evaluations.").inc(3)
        registry.gauge("repro_depth").set(2.0)
        histogram = registry.histogram(
            "repro_latency_seconds", buckets=[0.1, 1.0]
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = registry.render_text()
        assert "# HELP repro_evals_total Total evaluations." in text
        assert "# TYPE repro_evals_total counter" in text
        assert "repro_evals_total 3" in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_latency_seconds_count 2" in text

    def test_callback_gauge_reads_live_value_at_render(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.gauge_fn("repro_live", lambda: state["value"])
        assert "repro_live 1" in registry.render_text()
        state["value"] = 7.0
        assert "repro_live 7" in registry.render_text()

    def test_callback_gauge_holds_one_series_per_label_set(self):
        # The per-shard binding pattern: every shard registers its private
        # cache counter under the same name with a distinguishing label,
        # and no shard's series clobbers another's.
        registry = MetricsRegistry()
        shards = {"0": 10.0, "1": 20.0, "2": 30.0}
        for shard in shards:
            registry.gauge_fn(
                "repro_cache_hits",
                (lambda s=shard: shards[s]),
                labels={"shard": shard},
            )
        text = registry.render_text()
        for shard, value in shards.items():
            assert f'repro_cache_hits{{shard="{shard}"}} {int(value)}' in text
        gauge = registry.get("repro_cache_hits")
        assert gauge.value(shard="1") == 20.0
        shards["1"] = 25.0
        assert gauge.value(shard="1") == 25.0

    def test_callback_gauge_rebind_replaces_same_label_set_only(self):
        registry = MetricsRegistry()
        registry.gauge_fn("repro_live", lambda: 1.0, labels={"shard": "0"})
        registry.gauge_fn("repro_live", lambda: 2.0, labels={"shard": "1"})
        registry.gauge_fn("repro_live", lambda: 9.0, labels={"shard": "0"})
        gauge = registry.get("repro_live")
        assert gauge.value(shard="0") == 9.0
        assert gauge.value(shard="1") == 2.0

    def test_callback_gauge_unlabelled_value_requires_unique_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge_fn("repro_live", lambda: 4.0, labels={"shard": "0"})
        assert gauge.value() == 4.0  # sole series: unlabelled read resolves
        registry.gauge_fn("repro_live", lambda: 5.0, labels={"shard": "1"})
        with pytest.raises(KeyError):
            gauge.value()  # ambiguous now
        assert gauge.value(shard="1") == 5.0


class TestSubMicrosecondBuckets:
    def test_default_buckets_start_at_100ns(self):
        assert DEFAULT_BUCKETS[0] == 1e-7
        assert 2.5e-7 in DEFAULT_BUCKETS
        assert 5e-7 in DEFAULT_BUCKETS
        assert 1e-6 in DEFAULT_BUCKETS
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_cached_ruling_scale_p50_interpolates_inside_a_bucket(self):
        # ~2 µs observations must land strictly inside (1e-6, 2.5e-6],
        # not be clamped to the lowest bucket edge.
        histogram = Histogram("repro_ruling_seconds")
        for i in range(1000):
            histogram.observe(1.8e-6 + (i % 10) * 4e-8)
        p50 = histogram.quantile(0.50)
        assert 1e-6 < p50 <= 2.5e-6
        assert p50 != DEFAULT_BUCKETS[0]

    def test_sub_microsecond_observations_spread_over_new_buckets(self):
        histogram = Histogram("repro_lookup_seconds")
        for value in (0.5e-7, 2e-7, 4e-7, 8e-7):
            for _ in range(100):
                histogram.observe(value)
        # With the 100 ns ladder the quartile boundaries are resolved by
        # distinct buckets rather than one giant (-inf, 1e-6] bin.
        assert histogram.quantile(0.20) <= 1e-7
        assert 1e-7 < histogram.quantile(0.45) <= 2.5e-7
        assert 2.5e-7 < histogram.quantile(0.70) <= 5e-7
        assert 5e-7 < histogram.quantile(0.95) <= 1e-6
