"""The serve workloads: ``repro serve`` driven from another process.

Each run starts the real server as a child (``python -m repro serve``
on ephemeral loopback ports) and drives it with ``loadgen.py`` in a
second child, so the server and the generator never share an
interpreter.  The orchestrator (this module) only prepares inputs,
spawns, waits and checks; it stays idle while a phase is measured.

Set-up time is measured from outside: spawn to the first answered
``ping``, ``--prime`` included, several times per run.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import traffic as traffic_mod
from common import (
    BENCH_DIR,
    CALIBRATION_REF_S,
    Gates,
    median,
    metric_sum,
    peak_rss_mb,
    percentile,
)

#: Server spawns per run whose spawn-to-ping times give ``setup_s``.
SETUP_SAMPLES = 5
CONNECTIONS = 2
#: Requests in flight per connection in the closed loop.
DEPTH = 4
#: Rulings between two closed-loop sample points.
SAMPLE_RULINGS = {"serve-hot": 12500, "serve-cold-ledger": 1500}
#: An open loop whose sends ran later than this (p99) is invalid.
LATE_LIMIT_MS = 50.0
#: A cold closed loop stops sending after this many times its nominal
#: length, so a much slower program still finishes its run (measured,
#: over fewer actions) instead of timing out with no result.
COLD_CAP = 5
_START_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` child process."""

    def __init__(
        self, checkout: Path, env: dict, args: list[str], launcher=None
    ) -> None:
        base = [sys.executable]
        if launcher is None:
            base += ["-m", "repro"]
        else:
            base += [str(BENCH_DIR / "launch.py"), *launcher, "--"]
        self.argv = base + [
            "serve", "--port", "0", "--metrics-port", "0", *args
        ]
        self.checkout = checkout
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] = ("", 0)
        self.metrics_address: tuple[str, int] = ("", 0)
        self.banner: list[str] = []

    def start(self) -> float:
        """Spawn, wait for the first answered ping; return the seconds."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=self.checkout,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # The banner's three lines arrive in one flush; read the pipe raw
        # so no buffered reader hides them from the selector.
        output = b""
        fd = self.proc.stdout.fileno()
        deadline = started + _START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while output.count(b"\n") < 3:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not start in time")
                if not selector.select(1.0):
                    continue
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        "server exited during start-up: "
                        + self.proc.stderr.read().decode(errors="replace")
                    )
                output += chunk
        self.banner = output.decode().splitlines()
        for line in self.banner:
            if " NDJSON on " in line:
                host, _, port = line.rpartition(" ")[2].rpartition(":")
                self.address = (host, int(port))
            elif " metrics on http://" in line:
                hostport = line.split("http://")[1].split("/")[0]
                host, _, port = hostport.rpartition(":")
                self.metrics_address = (host, int(port))
        with socket.create_connection(self.address, timeout=30) as sock:
            sock.sendall(b'{"op":"ping"}\n')
            answer = sock.makefile("rb").readline()
        if answer != b'{"ok":true,"pong":true}\n':
            raise RuntimeError(f"unexpected ping answer {answer!r}")
        return time.perf_counter() - started

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self) -> int:
        """SIGTERM, wait, and return the exit code."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        return proc.returncode


def build_ledger(path: Path, seed: int) -> None:
    """The hot workload's pre-built ledger: every corpus ruling persisted."""
    from repro.core.cache import RulingCache
    from repro.core.engine import ComplianceEngine
    from repro.ledger.store import Ledger
    from repro.workloads import action_corpus

    with Ledger(path) as ledger:
        engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
        engine.evaluate_many(
            action_corpus(traffic_mod.HOT_CORPUS, seed)
        )
        ledger.commit()


def ledger_digests(path: Path) -> set[str]:
    """Fingerprint digests persisted in a ledger file (read-only)."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        rows = connection.execute("SELECT fingerprint_digest FROM rulings")
        return {row[0] for row in rows}
    finally:
        connection.close()


class ServeRun:
    """Everything one serve run shares: inputs, paths, child env."""

    def __init__(
        self, workload: str, seed: int, seconds: float, checkout: Path,
        work: Path, env: dict, gates: Gates,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.checkout = checkout
        self.work = work
        self.env = env
        self.gates = gates
        self.hot = traffic_mod.SHAPES[workload].cold_rate is None
        for problem in traffic_mod.check_pins(workload):
            print(problem, file=sys.stderr)
            gates.check("pins", False, problem)
        gates.check("pins", True)
        self.traffic = traffic_mod.build(workload, seed, seconds)
        self.requests = work / "requests.bin"
        self.requests.write_bytes(b"".join(self.traffic.lines))
        self.template = work / "template.db"
        if self.hot:
            build_ledger(self.template, seed)
            self.template_rows = len(ledger_digests(self.template))
        self.ledgers = 0

    def fresh_ledger(self) -> Path:
        """A new ledger path: a copy of the template, or none yet (cold)."""
        self.ledgers += 1
        path = self.work / f"ledger-{self.ledgers}.db"
        if self.hot:
            shutil.copyfile(self.template, path)
        return path

    def server(self, launcher=None) -> tuple[Server, Path]:
        ledger = self.fresh_ledger()
        args = ["--ledger", str(ledger)] + (["--prime"] if self.hot else [])
        return Server(self.checkout, self.env, args, launcher), ledger

    def setup_samples(self, count: int) -> list[float]:
        """Seconds from spawn to first ping of ``count`` servers."""
        samples = []
        for _ in range(count):
            server, ledger = self.server()
            try:
                samples.append(server.start())
            finally:
                self.gates.check("server exit", server.stop() == 0)
            self.remove_ledger(ledger)
        return samples

    def remove_ledger(self, ledger: Path) -> None:
        for suffix in ("", "-journal"):
            Path(f"{ledger}{suffix}").unlink(missing_ok=True)

    def phases(self, closed_seconds: float, open_loop: bool) -> list:
        """The generator's phases: a warm-up pass (hot only), the closed
        loop (``closed_seconds`` long when hot, a fixed count of new
        actions when cold, cut at ``COLD_CAP * closed_seconds``) and,
        with ``open_loop``, the open loop."""
        shape = traffic_mod.SHAPES[self.workload]
        closed = {"name": "closed", "kind": "closed", "depth": DEPTH,
                  "lines": self.traffic.closed,
                  "sample_every": SAMPLE_RULINGS[self.workload]
                  // shape.closed_batch}
        phases = [closed]
        if self.hot:
            closed["seconds"] = closed_seconds
            phases.insert(0, {"name": "warmup", "kind": "closed",
                              "depth": DEPTH, "lines": self.traffic.closed,
                              "passes": 1})
        else:
            closed["max_seconds"] = COLD_CAP * closed_seconds
        if open_loop:
            phases.append(
                {"name": "open", "kind": "open", "lines": self.traffic.open,
                 "due": self.traffic.due}
            )
        return phases

    def drive(self, server: Server, phases: list, tag: str) -> dict:
        """Run the generator child over ``phases``; return its report."""
        spec = {
            "requests": str(self.requests),
            "ids": self.traffic.ids,
            "sizes": self.traffic.sizes,
            "host": server.address[0],
            "port": server.address[1],
            "metrics_port": server.metrics_address[1],
            "server_pid": server.pid,
            "connections": CONNECTIONS,
            "phases": phases,
        }
        spec_path = self.work / f"spec-{tag}.json"
        out_path = self.work / f"report-{tag}.json"
        spec_path.write_text(json.dumps(spec))
        generator = subprocess.run(
            [sys.executable, str(BENCH_DIR / "loadgen.py"),
             str(spec_path), str(out_path)],
            cwd=self.checkout, env=self.env, timeout=170,
        )
        if generator.returncode != 0:
            raise RuntimeError(f"load generator exited {generator.returncode}")
        report = json.loads(out_path.read_text())
        if report["phases"]["closed"]["capped"]:
            print(
                f"perfbench: the closed loop reached its {COLD_CAP}x time "
                f"cap after {report['phases']['closed']['requests']} of "
                f"{len(self.traffic.closed)} requests; the program is much "
                "slower than the parent",
                file=sys.stderr,
            )
        return report

    def check_answers(self, report: dict) -> None:
        expected = self.traffic.expected
        mismatched = sum(
            expected[int(index)] != seen
            for index, seen in report["digests"].items()
        )
        answered = sum(p["requests"] for p in report["phases"].values())
        self.gates.count("served lines byte-identical", answered,
                         mismatched + report["inconsistent"])
        self.gates.count("answer id prefix", answered, report["errors"])
        final = list(report["phases"].values())[-1]["metrics_after"]
        for name in ("repro_serve_errors_total", "repro_serve_shed_total"):
            self.gates.check(name, metric_sum(final, name) == 0,
                             f"= {metric_sum(final, name):g}")
        if "open" in report["phases"]:
            late = percentile(report["phases"]["open"]["late_ms"], 99)
            self.gates.check(
                "generator held its schedule", late <= LATE_LIMIT_MS,
                f"(late p99 {late:.1f} ms)",
            )

    def check_ledger(self, ledger: Path, report: dict) -> None:
        """After SIGTERM: every answered action's ruling persisted (cold)
        or nothing written (hot), and no rollback journal left behind."""
        self.gates.check(
            "no ledger journal", not Path(f"{ledger}-journal").exists()
        )
        stored = ledger_digests(ledger)
        if self.hot:
            self.gates.check("hot ledger unchanged",
                             len(stored) == self.template_rows)
            return
        answered = {
            fingerprint
            for index in report["digests"]
            for fingerprint in self.traffic.fingerprints[int(index)]
        }
        self.gates.count("answered fingerprints in ledger",
                         len(answered), len(answered - stored))
        self.gates.check("ledger holds only answered rulings",
                         len(stored) == len(answered))


def closed_samples(phase: dict) -> tuple[list[float], list[float]]:
    """Per-interval ``(rulings/s, server CPU us per ruling)`` samples."""
    rates, cpu = [], []
    points = phase["samples"]
    for (t0, r0, c0, _), (t1, r1, c1, _) in zip(points, points[1:]):
        rates.append((r1 - r0) / (t1 - t0))
        cpu.append((c1 - c0) / 1e3 / (r1 - r0))
    return rates, cpu


def measure(ctx: ServeRun) -> dict:
    """One untraced run: the end-to-end metrics, from the closed loop.

    An op is one ruling.  The load metrics (wall and server CPU per
    ruling) are reported at the reference speed: scaled by the median of
    the calibration bursts the generator timed during the loop
    (``common``).  The raw values are printed on a ``raw:`` line.
    Open-loop latency is reported by traced runs only
    (``serve.server.rt_p50_ms``): on the VMs this runs on, it moved by
    more than a quarter between identical runs (README).
    """
    setups = ctx.setup_samples(SETUP_SAMPLES - 1)
    server, ledger = ctx.server()
    try:
        setups.append(server.start())
        report = ctx.drive(server, ctx.phases(ctx.seconds, False), "main")
        rss = peak_rss_mb(server.pid)
    finally:
        ctx.gates.check("server exit", server.stop() == 0)
    ctx.check_answers(report)
    ctx.check_ledger(ledger, report)
    closed = report["phases"]["closed"]
    rates, cpu = closed_samples(closed)
    slowdown = median(closed["bursts"]) / CALIBRATION_REF_S
    print(f"raw: wall_ms_per_op={1e3 / median(rates):.6f} "
          f"cpu_ms_per_op={median(cpu) / 1e3:.6f} slowdown={slowdown:.4f}")
    return {
        "setup_s": (median(setups), "s"),
        "wall_ms_per_op": (1e3 / (median(rates) * slowdown), "ms"),
        "cpu_ms_per_op": (median(cpu) / 1e3 / slowdown, "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
