"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 7 --seconds 12 --trace 0

Workloads: ``serve-hot``, ``serve-cold-ledger``, ``cli-table1``,
``cli-lint`` and ``cli-chaos`` (see ``BENCHMARK.json`` and
``perfbench/README.md``).  With ``--trace 0`` every workload reports
every end-to-end metric; with ``--trace 1`` it reports every per-layer
metric, from a traced run.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every correctness gate passed.  Run from a
directory without ``src/repro`` it prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import cli_bench
import traced
from common import END_TO_END, Gates, hash_seed

WORKLOADS = ("serve-hot", "serve-cold-ledger", *cli_bench.WORKLOADS)
WORK_ROOT = ".perfbench_work"


def child_env(checkout: Path, seed: int) -> dict:
    """The environment of every child: the checkout's sources and a
    ``PYTHONHASHSEED`` derived from the seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONHASHSEED"] = hash_seed(seed)
    return env


def warm_bytecode(checkout: Path, env: dict) -> None:
    """Import everything once, untimed, so no timed child compiles."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, repro.serve.server, repro.analysis, "
         "repro.faults.chaos, repro.investigation"],
        cwd=checkout, env=env, check=True, timeout=120,
    )


def measure(args: argparse.Namespace, checkout: Path, work: Path,
            gates: Gates) -> dict:
    env = child_env(checkout, args.seed)
    warm_bytecode(checkout, env)
    if args.workload in cli_bench.WORKLOADS:
        runner = cli_bench.measure_traced if args.trace else cli_bench.measure
        return runner(cli_bench.WORKLOADS[args.workload], checkout, work,
                      env, args.seconds, gates)
    import serve_bench

    ctx = serve_bench.ServeRun(
        args.workload, args.seed, args.seconds, checkout, work, env, gates
    )
    if args.trace:
        return traced.measure_serve(ctx)
    return serve_bench.measure(ctx)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(checkout / "src"))

    work = checkout / WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    gates = Gates()
    try:
        metrics = measure(args, checkout, work, gates)
        expected = traced.PER_LAYER if args.trace else END_TO_END
        reported = {name: unit for name, (_, unit) in metrics.items()}
        if reported != expected:
            raise RuntimeError(
                f"reported metrics {reported} differ from {expected}"
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in gates.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if gates.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
