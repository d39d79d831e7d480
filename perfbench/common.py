"""Helpers shared by the benchmark's orchestrator, generator and launcher.

Everything here is standard library only, so the load generator (which
must not import the program it measures) can use it too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections.abc import Sequence
from pathlib import Path

#: The seed whose traffic digests are committed in ``pins.json``.
DEFAULT_SEED = 7

BENCH_DIR = Path(__file__).resolve().parent

#: Every end-to-end metric: name -> unit.  Every workload reports all of
#: them (``--trace 0``).  An *op* is one ruling answered (serve-*) or one
#: invocation of the workload's command (cli-*).
END_TO_END = {
    "setup_s": "s",
    "wall_ms_per_op": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- machine speed -----------------------------------------------------------------
#
# The VMs this benchmark runs on change speed by 20-30 % over tens of
# seconds, and that drift between runs dominates the serve load metrics'
# spread.  So the load generator times fixed ~1 ms bursts of interpreter
# work (JSON round trips and dict walks, like the server's own hot paths)
# at every closed-loop sample point, and the serve load metrics are
# reported at the speed where one burst takes ``CALIBRATION_REF_S``.
# Nothing else is scaled: for set-up and the CLI commands the same
# scaling did not narrow the spread enough to be worth it (README).

#: One burst's CPU seconds at the reference speed (the median in the
#: load generator on the 2-vCPU Xeon VM the bounds were measured on).
CALIBRATION_REF_S = 1.1e-3

_BURST_DOC = {
    f"key{i}": [i, str(i) * 3, {"x": i * 0.5, "y": [True, None, "z"]}]
    for i in range(30)
}


def calibration_burst() -> float:
    """CPU seconds this thread takes for one fixed burst of work."""
    started = time.thread_time()
    for _ in range(8):
        data = json.loads(json.dumps(_BURST_DOC, sort_keys=True))
        total = 0
        for key, (number, text, inner) in data.items():
            total += number + len(text) + len(key) + len(inner["y"])
    return time.thread_time() - started


class Gates:
    """Correctness checks of one run, counted as failed against attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, name: str, attempted: int, failed: int) -> None:
        """Record ``attempted`` checks of one kind, ``failed`` of them bad."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{name}: {failed} of {attempted} failed")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.count(f"{name} {detail}".strip(), 1, 0 if ok else 1)


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches ``numpy.percentile``'s default method.  Raises ``ValueError``
    on an empty sequence: a metric with no samples is a benchmark bug,
    never a zero.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def reconcile(
    layer_self_s: dict[str, float], other_s: float, cpu_s: float
) -> float:
    """Relative error of the layer breakdown against measured CPU.

    ``layer_self_s`` are the wrapped layers' self times and ``other_s``
    the unwrapped remainder, both from the server's own clock;
    ``cpu_s`` is the kernel's account of the server's CPU time over the
    same window.  Returns ``|sum - cpu| / cpu``.
    """
    if cpu_s <= 0:
        raise ValueError("server used no CPU in the window")
    total = sum(layer_self_s.values()) + other_s
    return abs(total - cpu_s) / cpu_s


def digest(data: bytes) -> str:
    """Short content digest used to compare served and expected lines."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every child of a run gets, from ``--seed``."""
    value = int.from_bytes(
        hashlib.sha256(f"hashseed:{seed}".encode()).digest()[:4], "big"
    )
    return str(value)


# -- /proc readers -----------------------------------------------------------------


class ProcessSchedstat:
    """On-CPU and run-delay nanoseconds of a process, over all its threads.

    ``/proc/<pid>/schedstat`` counts the main thread only, so a worker
    thread's CPU would drop out of it; this sums
    ``/proc/<pid>/task/*/schedstat`` instead, which keeps nanosecond
    resolution (``/proc/<pid>/stat`` counts 10 ms ticks).  A thread that
    has exited keeps the counts it had when last read, so the totals never
    go backwards; what it ran after that last reading is missed.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._seen: dict[str, tuple[int, int]] = {}

    def read(self) -> tuple[int, int]:
        """``(on_cpu_ns, run_delay_ns)`` summed over the threads seen."""
        tasks = f"/proc/{self.pid}/task"
        for tid in os.listdir(tasks):
            try:
                with open(f"{tasks}/{tid}/schedstat") as handle:
                    fields = handle.read().split()
            except FileNotFoundError:
                continue  # the thread ended between listing and reading
            self._seen[tid] = (int(fields[0]), int(fields[1]))
        on_cpu = sum(value[0] for value in self._seen.values())
        delay = sum(value[1] for value in self._seen.values())
        return on_cpu, delay


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    return int(_status_field(pid, "VmHWM").split()[0]) / 1024.0


def _status_field(pid: int, name: str) -> str:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key == name:
                return value.strip()
    raise KeyError(f"{name} missing from /proc/{pid}/status")


def machine_steal_s() -> float:
    """Cumulative steal time of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLOCK_TICKS


# -- Prometheus text ---------------------------------------------------------------


def scrape_metrics(host: str, port: int) -> dict[str, float]:
    """GET ``/metrics`` from the server and parse the exposition."""
    import socket

    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n")
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        raise RuntimeError(f"/metrics answered {head[:40]!r}")
    return parse_prometheus(body.decode("utf-8"))


def parse_prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of an exposition."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def metric_sum(samples: dict[str, float], name: str) -> float:
    """Sum of every series of one metric, across its label sets."""
    return sum(
        value
        for key, value in samples.items()
        if key == name or key.startswith(name + "{")
    )
