"""Traced runs: the per-layer metrics.

A traced run reports every per-layer metric, on every workload.  A layer
that does not run on a workload reports 0 (that is a prediction: no
serve layer runs on ``cli-*``).

Serve workloads run the server twice: untraced for a closed-loop
reference rate, then under ``launch.py serve`` for warm-up, closed and
open loops.  Layer times come from the closed-loop window; the window's
bounds are the generator's ``perf_counter`` readings, which share the
server's monotonic clock.

Reconciliation: the server's busy time in the window is the window
minus the time its event loop waited in ``select``.  Minus the time
commits waited on the disk, the time the server was runnable but not
running (``/proc/<pid>/schedstat`` run delay) and its estimated share of
the CPU time the hypervisor stole, that busy time is the CPU the layers
should account for.  Delay and steal are spread over the layers' self
times in proportion; those plus ``other_s`` (the remainder) add up to
it by construction, and
``serve.server.reconcile_error`` compares it with the kernel's count of
the server's CPU time (all threads), gated at :data:`RECONCILE_TOLERANCE`.
That gate checks the idle, delay, steal and commit-wait accounting, not
the split between layers.  The split has its own gate: the layers may not
claim more than the server's CPU, so ``other_s`` must stay above
``-RECONCILE_TOLERANCE`` times it (a more negative remainder means a
double count or overlapping spans).
"""

from __future__ import annotations

import os
from pathlib import Path

from common import median, metric_sum, percentile, reconcile
from spans import Spans, layer_times

#: Largest accepted ``|layers + other - server CPU| / server CPU``, and
#: largest accepted ``-other / server CPU``.
RECONCILE_TOLERANCE = 0.15

LINT_RULES = tuple(f"REPRO{code}" for code in range(101, 114))

#: Every per-layer metric: name -> unit.
PER_LAYER = {
    "serve.protocol.decode_line.busy_s": "s",
    "serve.protocol.decode_line.calls": "count",
    "serve.protocol.action_from_dict.busy_s": "s",
    "serve.protocol.action_from_dict.calls": "count",
    "serve.shard.partition.busy_s": "s",
    "serve.shard.balance_max_over_mean": "ratio",
    "serve.shard.evaluate_many.actions_per_call": "count",
    "core.fingerprint.action_fingerprint.calls_per_ruling": "count",
    "serve.server.encode.busy_s": "s",
    "serve.server.encode.memo_miss_share": "share",
    "core.cache.hit_rate": "share",
    "core.cache.evictions": "count",
    "core.engine.evaluate_many.self_s": "s",
    "ledger.store.record_ruling.busy_s": "s",
    "ledger.store.record_ruling.calls": "count",
    "ledger.store.commit.busy_s": "s",
    "ledger.store.commit.wait_s": "s",
    "ledger.store.bytes_per_ruling": "bytes",
    "ledger.store.prime.busy_s": "s",
    "obs.histogram.observe.calls_per_ruling": "count",
    "serve.server.rulings": "count",
    "serve.server.cpu_s": "s",
    "serve.server.other_s": "s",
    "serve.server.reconcile_error": "share",
    "serve.server.queue_wait_s": "s",
    "serve.server.rt_p50_ms": "ms",
    "serve.server.rt_p99_ms": "ms",
    "serve.server.rt_samples": "count",
    "share.protocol_shard": "share",
    "share.encode": "share",
    "share.engine": "share",
    "share.ledger": "share",
    "share.obs_gc": "share",
    "share.other": "share",
    "trace.rulings_per_s": "1/s",
    "trace.untraced_rulings_per_s": "1/s",
    "trace.overhead_share": "share",
    "runtime.gc.pause_s": "s",
    "runtime.gc.gen2": "count",
    "proc.run_delay_s": "s",
    "machine.steal_s": "s",
    "loadgen.cpu_share": "share",
    "loadgen.late_p99_ms": "ms",
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.serve_modules_loaded": "count",
    "analysis.parse_s": "s",
    **{f"analysis.rule.{code}_s": "s" for code in LINT_RULES},
    "analysis.corpus.mutants": "count",
    "analysis.corpus.mismatches": "count",
    "faults.chaos.run_plan.busy_s": "s",
    "faults.chaos.run_plan.calls": "count",
    "faults.chaos.fanout_overhead_s": "s",
}


def report_layers(values: dict[str, float]) -> dict:
    """Every per-layer metric, 0 where this workload's layers did not run."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }


def _delta(phase: dict, prefix: str) -> dict[str, float]:
    """Per-series change of the metrics whose names start with prefix."""
    before, after = phase["metrics_before"], phase["metrics_after"]
    return {
        key: after[key] - before.get(key, 0.0)
        for key in after
        if key.startswith(prefix)
    }


def serve_layers(
    spans: Spans, report: dict, untraced_rate: float, ledger: Path
) -> dict[str, float]:
    """The serve per-layer metrics from a traced server's spans."""
    from serve_bench import closed_samples

    closed = report["phases"]["closed"]
    window = (closed["start"]["t"], closed["end"]["t"])
    layers = layer_times(spans, window)

    def get(name: str, key: str = "self") -> float:
        return layers.get(name, {}).get(key, 0.0)

    cpu_s = (
        closed["end"]["server_cpu_ns"] - closed["start"]["server_cpu_ns"]
    ) / 1e9
    commit_wait = get("ledger.store.commit", "wait")
    run_delay = (
        closed["end"]["server_delay_ns"] - closed["start"]["server_delay_ns"]
    ) / 1e9
    length = window[1] - window[0]
    busy = length - get("idle.select", "busy")
    # Steal is counted machine-wide: the server's part is its CPU's share
    # of it, for the fraction of the window the server was busy.
    steal = closed["end"]["steal_s"] - closed["start"]["steal_s"]
    server_steal = steal / (os.cpu_count() or 1) * busy / length
    accounted = busy - commit_wait - run_delay - server_steal
    # Spans are wall time: run delay and steal land inside them too, so
    # the layers' self times are scaled down by the same proportion.
    scale = accounted / (busy - commit_wait)
    groups = {
        "protocol_shard": get("serve.protocol.decode_line")
        + get("serve.protocol.action_from_dict")
        + get("serve.shard.partition")
        + get("serve.shard.evaluate_many"),
        "encode": get("serve.server.encode")
        + get("serve.server.canonical_json")
        + get("serve.server.ruling_to_dict"),
        "engine": get("core.engine.evaluate_many"),
        "ledger": get("ledger.store.record_ruling")
        + get("ledger.store.commit")
        - commit_wait,
        "obs_gc": get("obs.histogram.observe") + get("runtime.gc"),
    }
    groups = {group: value * scale for group, value in groups.items()}
    other = accounted - sum(groups.values())
    rulings = closed["rulings"]
    lifetime_rulings = sum(p["rulings"] for p in report["phases"].values())

    cache = _delta(closed, "repro_ruling_cache_")
    hits = metric_sum(cache, "repro_ruling_cache_hits")
    misses = metric_sum(cache, "repro_ruling_cache_misses")
    per_shard = list(_delta(closed, "repro_serve_shard_actions_total").values())

    open_phase = report["phases"]["open"]
    open_window = (open_phase["start"]["t"], open_phase["end"]["t"])
    open_idle = layer_times(spans, open_window).get("idle.select", {})
    open_busy = open_window[1] - open_window[0] - open_idle.get("busy", 0.0)
    round_trips = open_phase["round_trip_ms"]
    lifetime = layer_times(spans, (0.0, float("inf")))
    gen2 = sum(
        1
        for i in range(len(spans.start))
        if spans.names[spans.name[i]] == "runtime.gc"
        and spans.size[i] == 2
        and window[0] <= spans.start[i] <= window[1]
    )
    traced_rate = median(closed_samples(closed)[0])
    with_rows = ledger_rows(ledger)
    return {
        "serve.protocol.decode_line.busy_s": get(
            "serve.protocol.decode_line", "busy"
        ),
        "serve.protocol.decode_line.calls": get(
            "serve.protocol.decode_line", "calls"
        ),
        "serve.protocol.action_from_dict.busy_s": get(
            "serve.protocol.action_from_dict", "busy"
        ),
        "serve.protocol.action_from_dict.calls": get(
            "serve.protocol.action_from_dict", "calls"
        ),
        "serve.shard.partition.busy_s": get("serve.shard.partition", "busy"),
        "serve.shard.balance_max_over_mean": (
            max(per_shard) / (sum(per_shard) / len(per_shard))
        ),
        "serve.shard.evaluate_many.actions_per_call": (
            get("serve.shard.evaluate_many", "size")
            / get("serve.shard.evaluate_many", "calls")
        ),
        "core.fingerprint.action_fingerprint.calls_per_ruling": (
            spans.header["counts"]["core.fingerprint.action_fingerprint"]
            / lifetime_rulings
        ),
        "serve.server.encode.busy_s": get("serve.server.encode", "busy"),
        "serve.server.encode.memo_miss_share": (
            get("serve.server.ruling_to_dict", "calls")
            / get("serve.server.encode", "size")
        ),
        "core.cache.hit_rate": hits / (hits + misses),
        "core.cache.evictions": metric_sum(
            cache, "repro_ruling_cache_evictions"
        ),
        "core.engine.evaluate_many.self_s": get("core.engine.evaluate_many"),
        "ledger.store.record_ruling.busy_s": get(
            "ledger.store.record_ruling", "busy"
        ),
        "ledger.store.record_ruling.calls": get(
            "ledger.store.record_ruling", "calls"
        ),
        "ledger.store.commit.busy_s": get("ledger.store.commit", "busy"),
        "ledger.store.commit.wait_s": commit_wait,
        "ledger.store.bytes_per_ruling": ledger.stat().st_size / with_rows,
        "ledger.store.prime.busy_s": lifetime.get(
            "ledger.store.prime", {}
        ).get("busy", 0.0),
        "obs.histogram.observe.calls_per_ruling": (
            get("obs.histogram.observe", "calls") / rulings
        ),
        "serve.server.rulings": rulings,
        "serve.server.cpu_s": cpu_s,
        "serve.server.other_s": other,
        "serve.server.reconcile_error": reconcile(groups, other, cpu_s),
        "serve.server.queue_wait_s": (
            median(round_trips) / 1e3 - open_busy / open_phase["requests"]
        ),
        "serve.server.rt_p50_ms": median(round_trips),
        "serve.server.rt_p99_ms": percentile(round_trips, 99),
        "serve.server.rt_samples": len(round_trips),
        **{
            f"share.{group}": value / accounted
            for group, value in groups.items()
        },
        "share.other": other / accounted,
        "trace.rulings_per_s": traced_rate,
        "trace.untraced_rulings_per_s": untraced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
        "runtime.gc.pause_s": get("runtime.gc", "busy"),
        "runtime.gc.gen2": gen2,
        "proc.run_delay_s": run_delay,
        "machine.steal_s": steal,
        "loadgen.cpu_share": (
            closed["end"]["loadgen_cpu_s"] - closed["start"]["loadgen_cpu_s"]
        ) / length,
        "loadgen.late_p99_ms": percentile(open_phase["late_ms"], 99),
    }


def check_reconciliation(values: dict[str, float], gates) -> None:
    """Gate a serve breakdown: busy time matches the server's CPU, and
    the layers' self times do not add up to more than it."""
    error = values["serve.server.reconcile_error"]
    gates.check(
        "layers reconcile with server CPU", error <= RECONCILE_TOLERANCE,
        f"(error {error:.3f} > {RECONCILE_TOLERANCE})",
    )
    other, cpu = values["serve.server.other_s"], values["serve.server.cpu_s"]
    gates.check(
        "layers claim no more than server CPU",
        other >= -RECONCILE_TOLERANCE * cpu,
        f"(other_s {other:.3f} s against {cpu:.3f} s of CPU)",
    )


def ledger_rows(ledger: Path) -> int:
    from serve_bench import ledger_digests

    return len(ledger_digests(ledger))


def measure_serve(ctx) -> dict:
    """A traced serve run (``--trace 1``)."""
    from serve_bench import closed_samples

    server, ledger = ctx.server()
    try:
        server.start()
        untraced = ctx.drive(
            server, ctx.phases(ctx.seconds / 2, False), "plain"
        )
    finally:
        ctx.gates.check("server exit", server.stop() == 0)
    ctx.check_answers(untraced)
    ctx.check_ledger(ledger, untraced)
    ctx.remove_ledger(ledger)
    untraced_rate = median(closed_samples(untraced["phases"]["closed"])[0])

    spans_path = ctx.work / "spans.json"
    server, ledger = ctx.server(launcher=["serve", str(spans_path)])
    try:
        server.start()
        report = ctx.drive(
            server, ctx.phases(ctx.seconds / 2, True), "traced"
        )
    finally:
        ctx.gates.check("traced server exit", server.stop() == 0)
    ctx.check_answers(report)
    ctx.check_ledger(ledger, report)
    values = serve_layers(Spans(spans_path), report, untraced_rate, ledger)
    check_reconciliation(values, ctx.gates)
    return report_layers(values)
