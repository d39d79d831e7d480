"""The load generator: one thread, at most two connections, no ``repro``.

Run as ``python perfbench/loadgen.py SPEC.json OUT.json``.  The spec
names the pre-encoded request file, the server's address and pid, and
a list of phases:

* ``closed``: keep ``depth`` requests in flight on each connection,
  sending the next request as each answer arrives; stop sending after
  ``seconds`` (or after ``passes`` passes over the lines, or at the
  latest after ``max_seconds``), then drain.  Every ``sample_every``
  answers it records a sample point: time, rulings answered so far and
  the server's CPU and run delay, summed over its threads from
  ``/proc/<pid>/task/*/schedstat``, and times a calibration burst
  (``common``) on its own CPU while requests stay queued at the server.
* ``open``: send each request at its due time (``due`` offsets from the
  phase start, precomputed Poisson arrivals), alternating connections.
  Each round trip is timed from the request's due time, and how late
  the generator sent it is recorded too.

Inside a phase the generator never parses a ruling: it checks the
answer's id prefix and keeps a digest of the whole line.  The
orchestrator compares the digests with the in-process answers after
the run.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from collections import deque

from common import (
    ProcessSchedstat,
    calibration_burst,
    digest,
    machine_steal_s,
    scrape_metrics,
)

_IDLE_TIMEOUT_S = 60.0


class _Connection:
    """One NDJSON connection and the requests awaiting its answers."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.scanned = 0
        self.waiting: deque[tuple[int, float]] = deque()

    def send(self, line: bytes, index: int, stamp: float) -> None:
        self.waiting.append((index, stamp))
        self.sock.sendall(line)

    def lines(self) -> list[bytes]:
        """Every complete line the socket has ready."""
        chunk = self.sock.recv(1 << 22)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        found = []
        while True:
            end = self.buffer.find(b"\n", self.scanned)
            if end < 0:
                self.scanned = len(self.buffer)
                return found
            found.append(bytes(self.buffer[: end + 1]))
            del self.buffer[: end + 1]
            self.scanned = 0

    def close(self) -> None:
        self.sock.close()


class Generator:
    def __init__(self, spec: dict) -> None:
        with open(spec["requests"], "rb") as handle:
            self.requests = handle.read().split(b"\n")[:-1]
        self.requests = [line + b"\n" for line in self.requests]
        self.prefixes = [
            b'{"id":%d,"ok":true,"rulings":[' % request_id
            for request_id in spec["ids"]
        ]
        self.sizes = spec["sizes"]
        self.spec = spec
        self.server = ProcessSchedstat(spec["server_pid"])
        self.digests: dict[int, str] = {}
        self.inconsistent = 0
        self.errors = 0
        self.connections = [
            _Connection(spec["host"], spec["port"])
            for _ in range(spec["connections"])
        ]
        self.selector = selectors.DefaultSelector()
        for connection in self.connections:
            self.selector.register(
                connection.sock, selectors.EVENT_READ, connection
            )

    # -- answers -----------------------------------------------------------------

    def _check(self, index: int, line: bytes) -> None:
        if not line.startswith(self.prefixes[index]):
            self.errors += 1
        seen = digest(line)
        previous = self.digests.setdefault(index, seen)
        if previous != seen:
            self.inconsistent += 1

    def _answers(self, timeout: float | None = None):
        """Yield ``(connection, index, stamp, now)`` per answer received.

        Waits at most ``timeout`` seconds for the first answer; with no
        timeout, a server silent for a minute is an error.
        """
        events = self.selector.select(
            _IDLE_TIMEOUT_S if timeout is None else timeout
        )
        if not events and timeout is None:
            raise TimeoutError("no answer from the server for 60 s")
        for key, _ in events:
            connection = key.data
            lines = connection.lines()
            now = time.perf_counter()
            for line in lines:
                index, stamp = connection.waiting.popleft()
                self._check(index, line)
                yield connection, index, stamp, now

    # -- phases ------------------------------------------------------------------

    def _snapshot(self) -> dict:
        on_cpu, delay = self.server.read()
        return {
            "t": time.perf_counter(),
            "server_cpu_ns": on_cpu,
            "server_delay_ns": delay,
            "loadgen_cpu_s": time.process_time(),
            "steal_s": machine_steal_s(),
        }

    def closed(self, phase: dict) -> dict:
        lines = phase["lines"]
        depth = phase["depth"]
        deadline = phase.get("seconds")
        budget = len(lines) * phase.get("passes", 1)
        sample_every = phase.get("sample_every", 0)
        sent = answered = rulings = 0
        samples = []
        bursts: list[float] = []
        start = self._snapshot()
        stop_at = start["t"] + deadline if deadline else None
        cap = phase.get("max_seconds")
        cap_at = start["t"] + cap if cap else None

        def more() -> bool:
            now = time.perf_counter()
            if stop_at is not None:
                return now < stop_at
            return sent < budget and (cap_at is None or now < cap_at)

        for connection in self.connections:
            for _ in range(depth):
                if more():
                    index = lines[sent % len(lines)]
                    connection.send(self.requests[index], index, 0.0)
                    sent += 1
        while answered < sent:
            for connection, index, _, _ in self._answers():
                answered += 1
                rulings += self.sizes[index]
                if sample_every and answered % sample_every == 0 and more():
                    on_cpu, delay = self.server.read()
                    samples.append(
                        (time.perf_counter(), rulings, on_cpu, delay)
                    )
                    bursts.append(calibration_burst())
                if more():
                    index = lines[sent % len(lines)]
                    connection.send(self.requests[index], index, 0.0)
                    sent += 1
        return {
            "start": start,
            "end": self._snapshot(),
            "requests": answered,
            "rulings": rulings,
            "samples": samples,
            "bursts": bursts,
            "capped": sent < budget and stop_at is None,
        }

    def open(self, phase: dict) -> dict:
        lines = phase["lines"]
        due = phase["due"]
        count = len(due)
        start = self._snapshot()
        origin = start["t"] + 0.05
        round_trips: list[float] = []
        lateness: list[float] = []
        rulings = sent = 0
        while sent < count or any(c.waiting for c in self.connections):
            now = time.perf_counter()
            while sent < count and origin + due[sent] <= now:
                index = lines[sent]
                due_at = origin + due[sent]
                self.connections[sent % len(self.connections)].send(
                    self.requests[index], index, due_at
                )
                now = time.perf_counter()
                lateness.append((now - due_at) * 1e3)
                sent += 1
            wait = max(0.0, origin + due[sent] - now) if sent < count else None
            for _, index, due_at, received in self._answers(wait):
                round_trips.append((received - due_at) * 1e3)
                rulings += self.sizes[index]
        return {
            "start": start,
            "end": self._snapshot(),
            "requests": sent,
            "rulings": rulings,
            "round_trip_ms": round_trips,
            "late_ms": lateness,
        }

    def run(self) -> dict:
        report: dict = {"phases": {}}
        metrics_address = (self.spec["host"], self.spec["metrics_port"])
        for phase in self.spec["phases"]:
            before = scrape_metrics(*metrics_address)
            runner = self.closed if phase["kind"] == "closed" else self.open
            result = runner(phase)
            result["metrics_before"] = before
            result["metrics_after"] = scrape_metrics(*metrics_address)
            report["phases"][phase["name"]] = result
        for connection in self.connections:
            connection.close()
        report["digests"] = {str(k): v for k, v in self.digests.items()}
        report["inconsistent"] = self.inconsistent
        report["errors"] = self.errors
        return report


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    report = Generator(spec).run()
    with open(out_path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
