"""The cli-* workloads: one ``repro`` command, in fresh interpreters.

Each workload times one command: ``cli-table1`` runs ``repro table1``,
``cli-lint`` runs ``repro lint`` over the frozen snapshot in
``lint_input/repro``, and ``cli-chaos`` runs ``repro chaos --budget large
--workers 2``.  A run repeats rounds of ``import repro.cli`` (the set-up
every command pays), the command and a speed reference until
``--seconds`` have passed (at least :data:`MIN_ROUNDS` rounds).  Each
child is timed from spawn to ``os.wait4``, which also reports its CPU
time and peak RSS (pool workers included, once reaped).  The rounds'
steps run one at a time, and no serve layer is involved.

The snapshot freezes the linter's *input*: adding or deleting program
source cannot move the lint times by itself, while the linter that runs
is always the checkout's.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import traced
from common import BENCH_DIR, Gates, median
from spans import Spans

LINT_INPUT = BENCH_DIR / "lint_input"
SNAPSHOT = LINT_INPUT / "repro"
CORPUS = LINT_INPUT / "corpus" / "repro"

CHAOS = ["chaos", "--budget", "large", "--workers", "2"]
CHAOS_OK = "100/100 plans hold every invariant; replay deterministic"

#: What the speed reference imports: interpreter start-up and module
#: loading (numpy's extension modules included), the kind of work that
#: dominates every cli command's first half second and every chaos pool
#: worker's start.
REFERENCE_MODULES = (
    "asyncio", "email.mime.multipart", "http.server",
    "xml.etree.ElementTree", "unittest.mock", "decimal", "sqlite3",
    "concurrent.futures", "logging.handlers", "argparse", "csv", "tarfile",
    "zipfile", "statistics", "fractions", "dataclasses", "inspect",
    "pydoc", "ast", "difflib", "pickle", "tomllib", "numpy",
)
#: CPU seconds of one reference run at the reference speed (the median on
#: the 2-vCPU Xeon VM the bounds were measured on).
REFERENCE_S = 0.38

#: name -> (interpreter arguments, text the output must contain).
COMMANDS = {
    "import": (["-c", "import repro.cli"], ""),
    "table1": (["-m", "repro", "table1"], "agreement: 20/20"),
    "lint": (["-m", "repro", "lint", str(SNAPSHOT)], "no findings"),
    "chaos": (["-m", "repro", *CHAOS], CHAOS_OK),
}
#: The machine-speed reference: standard-library and numpy imports only,
#: in an isolated interpreter (no PYTHONPATH), so no program change moves
#: it.
REFERENCE = ["-I", "-c", "import " + ", ".join(REFERENCE_MODULES)]
#: Reference interpreters run at once, per command: as many as the
#: command keeps busy, so a slow second CPU shows in chaos's reference.
REFERENCE_COPIES = {"table1": 1, "lint": 1, "chaos": 2}
#: Workload name -> the command it times.
WORKLOADS = {
    "cli-table1": "table1", "cli-lint": "lint", "cli-chaos": "chaos"
}
MIN_ROUNDS = 4


class Timed:
    """One finished child: wall and CPU seconds, peak RSS, exit code and
    output."""

    def __init__(self, argv: list[str], checkout: Path, env: dict) -> None:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=checkout, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # Both pipes are drained before the child is reaped, so the wall
        # time ends exactly when wait4 returns.
        self.stdout, self.stderr = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def _drain(proc: subprocess.Popen) -> tuple[str, str]:
    """Read stdout and stderr to EOF without reaping the child."""
    import selectors

    chunks: dict[int, list[bytes]] = {
        proc.stdout.fileno(): [], proc.stderr.fileno(): []
    }
    with selectors.DefaultSelector() as selector:
        for fd in chunks:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fd)
    proc.stdout.close()
    proc.stderr.close()
    out, err = chunks.values()
    return (
        b"".join(out).decode(errors="replace"),
        b"".join(err).decode(errors="replace"),
    )


def run_checked(
    name: str, argv: list[str], expect: str, checkout: Path, env: dict,
    gates: Gates, code: int = 0,
) -> Timed:
    result = Timed(argv, checkout, env)
    ok = result.code == code and expect in result.stdout
    if not ok:
        print(result.stdout[-2000:], result.stderr[-2000:], file=sys.stderr)
    gates.check(name, ok, f"(exit {result.code}, wanted {code} and "
                f"{expect!r} in the output)")
    return result


def measure(command: str, checkout: Path, work: Path, env: dict,
            seconds: float, gates: Gates) -> dict:
    """One untraced run of ``command``: the end-to-end metrics.

    Every round runs ``import repro.cli``, the command and the speed
    reference, in turn.  Each import and command time is divided by the
    CPU time of the reference run next to it (the mean over
    :data:`REFERENCE_COPIES` run at once), so the machine's drift
    between runs cancels; the metrics are the medians of those ratios,
    times :data:`REFERENCE_S` (the times at the reference speed).  The
    raw medians are printed on a ``raw:`` line.
    """
    samples: dict[str, list[float]] = {
        "import": [], "wall": [], "cpu": [], "reference": []
    }
    peak = 0.0
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        for name in ("import", command):
            argv, expect = COMMANDS[name]
            result = run_checked(name, argv, expect, checkout, env, gates)
            if name == "import":
                samples["import"].append(result.wall_s)
            else:
                samples["wall"].append(result.wall_s)
                samples["cpu"].append(result.cpu_s)
            peak = max(peak, result.rss_mb)
        samples["reference"].append(
            reference_cpu(REFERENCE_COPIES[command], gates)
        )
        rounds += 1
    print("raw: " + " ".join(
        f"{key}={median(values):.4f}" for key, values in samples.items()
    ))
    return {
        "setup_s": (at_reference(samples["import"], samples), "s"),
        "wall_ms_per_op": (at_reference(samples["wall"], samples) * 1e3,
                           "ms"),
        "cpu_ms_per_op": (at_reference(samples["cpu"], samples) * 1e3, "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }


def reference_cpu(copies: int, gates: Gates) -> float:
    """Mean CPU seconds of ``copies`` reference interpreters run at once."""
    children = [
        subprocess.Popen(
            [sys.executable, *REFERENCE],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(copies)
    ]
    total = 0.0
    for child in children:
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        gates.check("speed reference", child.returncode == 0,
                    f"(exit {child.returncode})")
        total += usage.ru_utime + usage.ru_stime
    return total / copies


def at_reference(values: list[float], samples: dict) -> float:
    """Median of ``values`` over their rounds' reference times, at the
    reference speed."""
    return REFERENCE_S * median(
        [value / ref for value, ref in zip(values, samples["reference"])]
    )


# -- traced run --------------------------------------------------------------------

_IMPORT_TIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)$")
_TIMING = re.compile(r"^(<parse>|REPRO\d+)\s+([\d.]+) ms$")
_FINDING = re.compile(r"^(.+?):(\d+):\d+: \w+: (REPRO\d+):")
_MARKER = re.compile(r"#\s*expect:\s*(REPRO\d+)")
#: Codes the clean corpus file must stay silent on (the dataflow rules).
_DATAFLOW = {"REPRO110", "REPRO111", "REPRO112", "REPRO113"}


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per top-level-named module, from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        match = _IMPORT_TIME.match(line)
        if match:
            found.setdefault(match.group(4), int(match.group(2)) / 1e6)
    return found


def lint_timings(stdout: str) -> dict[str, float]:
    """Seconds per rule code (and ``<parse>``) from ``lint --timings``."""
    timings = {}
    for line in stdout.splitlines():
        match = _TIMING.match(line.strip())
        if match:
            timings[match.group(1)] = float(match.group(2)) / 1e3
    return timings


def corpus_mismatches(stdout: str, corpus: Path) -> tuple[int, int]:
    """``(mutants, mismatches)``: findings on the mutant corpus against
    its ``# expect:`` markers, each file restricted to the codes it
    declares (the dataflow codes for the clean file)."""
    found: dict[str, set[tuple[int, str]]] = {}
    for line in stdout.splitlines():
        match = _FINDING.match(line)
        if match:
            found.setdefault(Path(match.group(1)).name, set()).add(
                (int(match.group(2)), match.group(3))
            )
    mutants = mismatches = 0
    for path in sorted(corpus.glob("*.py")):
        expected = {
            (number, match.group(1))
            for number, text in enumerate(
                path.read_text().splitlines(), start=1
            )
            if (match := _MARKER.search(text))
        }
        codes = {code for _, code in expected} or _DATAFLOW
        reported = {
            item for item in found.get(path.name, set()) if item[1] in codes
        }
        mutants += len(expected)
        mismatches += len(expected ^ reported)
    return mutants, mismatches


def _launch(mode: str, out: Path, args: list[str]) -> list[str]:
    return [str(BENCH_DIR / "launch.py"), mode, str(out), "--", *args]


def measure_traced(command: str, checkout: Path, work: Path, env: dict,
                   seconds: float, gates: Gates) -> dict:
    """A traced run (``--trace 1``) of ``command``: the cli per-layer
    metrics (import times on every cli workload, the command's own layer
    on its workload, 0 elsewhere)."""
    values: dict[str, float] = {}
    imports = [
        import_times(
            run_checked("importtime", ["-X", "importtime", "-c",
                                       "import repro.cli"],
                        "", checkout, env, gates).stderr
        )
        for _ in range(3)
    ]
    values["cli.import_s"] = median([i["repro.cli"] for i in imports])
    values["cli.import.numpy_s"] = median(
        [i.get("numpy", 0.0) for i in imports]
    )

    traced_runs = {
        "table1": [("table1", ["table1"], "agreement: 20/20", 0)],
        "lint": [
            ("lint", ["lint", str(SNAPSHOT), "--timings"], "no findings", 0),
            ("corpus", ["lint", str(CORPUS)], "finding(s)", 1),
        ],
        "chaos": [
            ("chaos", ["chaos", "--budget", "large", "--workers", "1"],
             CHAOS_OK, 0),
        ],
    }[command]
    serve_modules = 0
    outputs = {}
    for name, args, expect, code in traced_runs:
        out = work / f"{name}.spans.json"
        mode = "chaos" if name == "chaos" else "cli"
        result = run_checked(name, _launch(mode, out, args), expect,
                             checkout, env, gates, code)
        outputs[name] = (result, Spans(out))
        serve_modules += sum(
            module.startswith("repro.serve")
            for module in outputs[name][1].header["modules"]
        )
    values["cli.serve_modules_loaded"] = serve_modules

    if command == "lint":
        values.update(_lint_layers(outputs, gates))
    elif command == "chaos":
        values.update(_chaos_layers(outputs, checkout, env, gates))
    return traced.report_layers(values)


def _lint_layers(outputs: dict, gates: Gates) -> dict[str, float]:
    values = {}
    timings = lint_timings(outputs["lint"][0].stdout)
    values["analysis.parse_s"] = timings["<parse>"]
    for code in traced.LINT_RULES:
        values[f"analysis.rule.{code}_s"] = timings[code]
    mutants, mismatches = corpus_mismatches(outputs["corpus"][0].stdout,
                                            CORPUS)
    values["analysis.corpus.mutants"] = mutants
    values["analysis.corpus.mismatches"] = mismatches
    gates.check("mutant corpus findings equal markers", mismatches == 0,
                f"({mismatches} mismatches)")
    return values


def _chaos_layers(outputs: dict, checkout: Path, env: dict,
                  gates: Gates) -> dict[str, float]:
    values = {}
    serial, spans = outputs["chaos"]
    plans = [
        spans.end[i] - spans.start[i]
        for i in range(len(spans.start))
        if spans.names[spans.name[i]] == "faults.chaos.run_plan"
    ]
    values["faults.chaos.run_plan.busy_s"] = sum(plans)
    values["faults.chaos.run_plan.calls"] = len(plans)
    pooled = run_checked("chaos", COMMANDS["chaos"][0], CHAOS_OK, checkout,
                         env, gates)
    # The sweep's plans (all but the in-process replay, the last call)
    # split ideally over two workers; the rest is the fan-out's cost.
    sweep = sum(plans[:-1])
    values["faults.chaos.fanout_overhead_s"] = pooled.wall_s - (
        serial.wall_s - sweep / 2
    )
    return values
