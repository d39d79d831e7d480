"""Unit tests of the benchmark's helpers.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_bench  # noqa: E402
import run  # noqa: E402
import serve_bench  # noqa: E402
import traced  # noqa: E402
import traffic  # noqa: E402
from common import (  # noqa: E402
    END_TO_END,
    Gates,
    ProcessSchedstat,
    metric_sum,
    parse_prometheus,
    percentile,
    reconcile,
)
from spans import Recorder, Spans, layer_times  # noqa: E402


class TestStatistics:
    def test_percentile_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(3)
        for size in (1, 2, 7, 100):
            values = [rng.expovariate(1.0) for _ in range(size)]
            for q in (0, 25, 50, 99, 100):
                assert percentile(values, q) == pytest.approx(
                    float(numpy.percentile(values, q))
                )

    def test_percentile_of_nothing_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestReconcile:
    def test_exact_breakdown_has_no_error(self):
        assert reconcile({"a": 1.0, "b": 2.0}, 0.5, 3.5) == 0.0

    def test_error_is_relative_to_cpu(self):
        assert reconcile({"a": 1.0}, 0.1, 1.0) == pytest.approx(0.1)

    def test_no_cpu_is_refused(self):
        with pytest.raises(ValueError):
            reconcile({"a": 1.0}, 0.0, 0.0)


    def test_negative_remainder_fails_its_own_gate(self):
        def gate(other_s):
            gates = Gates()
            traced.check_reconciliation(
                {"serve.server.reconcile_error": 0.01,
                 "serve.server.other_s": other_s,
                 "serve.server.cpu_s": 10.0},
                gates,
            )
            return gates.failed

        assert gate(0.5) == 0
        assert gate(-1.0) == 0
        assert gate(-2.0) == 1


class TestSchedstat:
    def test_a_helper_threads_cpu_is_counted(self):
        spun: list[float] = []
        done, release = threading.Event(), threading.Event()

        def spin():
            started = time.thread_time()
            while time.thread_time() - started < 0.2:
                pass
            spun.append(time.thread_time() - started)
            done.set()
            release.wait()

        def main_thread_ns():
            with open(f"/proc/{os.getpid()}/schedstat") as handle:
                return int(handle.read().split()[0])

        reader = ProcessSchedstat(os.getpid())
        before, _ = reader.read()
        main_before = main_thread_ns()
        helper = threading.Thread(target=spin)
        helper.start()
        assert done.wait(30)
        during, _ = reader.read()
        main_during = main_thread_ns()
        release.set()
        helper.join()
        after, _ = reader.read()
        # The main thread's own count misses the helper; the sum over
        # threads holds all of its CPU, and keeps it once it has exited.
        assert (main_during - main_before) / 1e9 < spun[0] / 2
        assert (during - before) / 1e9 >= spun[0]
        assert after >= during


class TestGatesAndMetrics:
    def test_gates_count_failed_against_attempted(self):
        gates = Gates()
        gates.check("ok", True)
        gates.check("bad", False, "(detail)")
        gates.count("lines", 10, 2)
        assert (gates.attempted, gates.failed) == (12, 3)
        assert gates.problems == ["bad (detail): 1 of 1 failed",
                                  "lines: 2 of 10 failed"]

    def test_prometheus_parse_and_sum(self):
        samples = parse_prometheus(
            "# HELP x y\n"
            'repro_ruling_cache_hits{cache="shard0"} 3\n'
            'repro_ruling_cache_hits{cache="shard1"} 4.5\n'
            "repro_serve_shed_total 0\n"
        )
        assert metric_sum(samples, "repro_ruling_cache_hits") == 7.5
        assert metric_sum(samples, "repro_serve_shed_total") == 0.0
        assert metric_sum(samples, "repro_ruling_cache") == 0.0


class TestSpans:
    def test_self_time_excludes_children(self, tmp_path):
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        recorder = Recorder()
        import spans as spans_module

        original = spans_module.clock
        spans_module.clock = lambda: next(ticks)
        try:
            inner = recorder.wrap("inner", lambda: None)
            outer = recorder.wrap(
                "outer", lambda xs: inner(), size=lambda xs: len(xs)
            )
            outer([1, 2, 3])
        finally:
            spans_module.clock = original
        out = tmp_path / "spans.json"
        recorder.dump(out, {"modules": []})
        layers = layer_times(Spans(out), (0.0, 10.0))
        assert layers["outer"]["busy"] == 10.0
        assert layers["outer"]["self"] == 8.0
        assert layers["outer"]["size"] == 3
        assert layers["inner"]["self"] == 2.0
        assert layer_times(Spans(out), (0.5, 10.0)).keys() == {"inner"}

    def test_counter_counts_without_spans(self):
        recorder = Recorder()
        double = recorder.counter("double", lambda x: 2 * x)
        assert [double(1), double(2)] == [2, 4]
        assert recorder.counts == {"double": 2}
        assert len(recorder.start) == 0


class TestPins:
    def test_committed_pins_match_this_tree(self):
        for workload in traffic.SHAPES:
            assert traffic.check_pins(workload) == []

    def test_a_changed_pin_fails_loudly(self, tmp_path, monkeypatch):
        pins = json.loads(traffic.PINS_PATH.read_text())
        pins["serve-hot"]["requests"] = "0" * 64
        path = tmp_path / "pins.json"
        path.write_text(json.dumps(pins))
        monkeypatch.setattr(traffic, "PINS_PATH", path)
        problems = traffic.check_pins("serve-hot")
        assert len(problems) == 1 and "requests digest" in problems[0]

    def test_traffic_is_a_function_of_the_seed(self):
        first = traffic.pin_probe("serve-cold-ledger")
        assert traffic.pin_probe("serve-cold-ledger") == first
        actions = traffic.distinct_actions(11, 300)
        from repro.core.fingerprint import action_fingerprint

        assert len({action_fingerprint(a) for a in actions}) == 300
        assert traffic.arrivals(50.0, 5, 1) == traffic.arrivals(50.0, 5, 1)


class TestLedgerCheck:
    def _run(self, fingerprints):
        ctx = object.__new__(serve_bench.ServeRun)
        ctx.hot = False
        ctx.gates = Gates()
        ctx.traffic = traffic.Traffic(fingerprints={0: fingerprints})
        return ctx

    def _ledger(self, tmp_path, actions):
        from repro.core.engine import ComplianceEngine
        from repro.ledger.store import Ledger

        path = tmp_path / "cold.db"
        with Ledger(path) as ledger:
            ComplianceEngine(ledger=ledger).evaluate_many(actions)
        return path

    def _digests(self, actions):
        from repro.core.fingerprint import (
            action_fingerprint,
            fingerprint_digest,
        )

        return [fingerprint_digest(action_fingerprint(a)) for a in actions]

    def test_every_answer_persisted_passes(self, tmp_path):
        actions = traffic.distinct_actions(5, 6)
        path = self._ledger(tmp_path, actions)
        ctx = self._run(self._digests(actions))
        ctx.check_ledger(path, {"digests": {"0": "x"}})
        assert ctx.gates.failed == 0

    def test_a_lost_ruling_and_a_journal_fail(self, tmp_path):
        actions = traffic.distinct_actions(5, 6)
        path = self._ledger(tmp_path, actions[:5])
        Path(f"{path}-journal").write_bytes(b"")
        ctx = self._run(self._digests(actions))
        ctx.check_ledger(path, {"digests": {"0": "x"}})
        # The journal, the missing fingerprint, and the row count.
        assert ctx.gates.failed == 3


class TestReferenceScaling:
    def test_each_sample_is_divided_by_its_own_rounds_reference(self):
        ref = cli_bench.REFERENCE_S
        samples = {"reference": [ref, 2 * ref, ref / 2]}
        # The machine ran at half and at double speed in rounds 2 and 3;
        # the command took the same time at the reference speed in all.
        assert cli_bench.at_reference([1.0, 2.0, 0.5], samples) == (
            pytest.approx(1.0)
        )

    def test_the_median_ratio_ignores_one_disturbed_round(self):
        ref = cli_bench.REFERENCE_S
        samples = {"reference": [ref, ref, ref]}
        assert cli_bench.at_reference([1.0, 9.0, 1.2], samples) == (
            pytest.approx(1.2)
        )


class TestCliParsers:
    def test_import_times(self):
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       200 |      171000 |   numpy\n"
            "import time:       300 |      528000 | repro.cli\n"
        )
        times = cli_bench.import_times(stderr)
        assert times["numpy"] == 0.171 and times["repro.cli"] == 0.528

    def test_lint_timings(self):
        out = "no findings\n<parse>   409.9 ms\nREPRO111    1810.1 ms\n"
        assert cli_bench.lint_timings(out) == pytest.approx(
            {"<parse>": 0.4099, "REPRO111": 1.8101}
        )

    def test_corpus_markers_compare_exactly(self):
        marker = re.compile(r"#\s*expect:\s*(REPRO\d+)")
        lines = []
        for path in sorted(cli_bench.CORPUS.glob("*.py")):
            for number, text in enumerate(
                path.read_text().splitlines(), start=1
            ):
                match = marker.search(text)
                if match:
                    lines.append(
                        f"{path}:{number}:1: error: {match.group(1)}: x"
                    )
        perfect = "\n".join(lines)
        assert cli_bench.corpus_mismatches(perfect, cli_bench.CORPUS) == (
            len(lines), 0,
        )
        noisy = "\n".join(lines[1:] + [f"{lines[0].split(':')[0]}:1:1: "
                                       "error: REPRO110: extra"])
        assert cli_bench.corpus_mismatches(noisy, cli_bench.CORPUS)[1] == 2


class TestBenchmarkJson:
    """``BENCHMARK.json`` stays within the benchmark contract."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_keys_and_limits(self):
        spec = self.spec
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert spec["paths"] == ["perfbench"]
        assert 1 <= spec["run_seconds"] <= 60
        assert 2 <= len(spec["workloads"]) <= 8
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(self.name.match(n) for n in names)
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in spec["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
        assert all(self.unit.match(u) for u in units)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s"
        assert setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(
            m["bound"] for m in spec["end_to_end"]
        )

    def test_per_layer_list_is_what_traced_runs_report(self):
        assert {
            m["name"]: m["unit"] for m in self.spec["per_layer"]
        } == traced.PER_LAYER

    def test_end_to_end_list_is_what_every_workload_reports(self):
        assert {
            m["name"]: m["unit"] for m in self.spec["end_to_end"]
        } == END_TO_END

    def test_workloads_are_the_ones_run_accepts(self):
        assert tuple(w["name"] for w in self.spec["workloads"]) == (
            run.WORKLOADS
        )
