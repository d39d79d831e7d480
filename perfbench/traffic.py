"""Seeded request traffic and its in-process reference answers.

Everything here is a pure function of ``(workload, seed, seconds)`` and
is encoded before any timer starts: the request lines go through the
program's own wire encoder (``action_to_dict`` + ``encode_line``), and
each expected answer is the line ``encode_line`` renders for the
in-process engine's rulings.  The server must answer byte for byte the
same, which the orchestrator checks by digest after the run.

``pin_probe`` rebuilds a short prefix of each workload's traffic for the
default seed and digests it; ``pins.json`` holds the committed digests,
so a change to ``repro.workloads`` or to the wire encoder fails the
benchmark instead of silently changing what it measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.core.fingerprint import action_fingerprint, fingerprint_digest
from repro.ledger.serialize import ruling_to_dict
from repro.serve.protocol import action_to_dict, encode_line
from repro.workloads import action_corpus, random_action

from common import BENCH_DIR, DEFAULT_SEED, digest


@dataclasses.dataclass(frozen=True)
class Shape:
    """How one serve workload's traffic is built.

    Attributes:
        closed_batch: Actions per closed-loop request.
        open_batch: Actions per open-loop request.
        open_rate: Open-loop Poisson arrival rate, requests per second —
            about a quarter of the parent commit's capacity, fixed here
            and never derived from the run itself.
        cold_rate: Rulings per second the cold closed loop is sized for
            (about the parent commit's capacity): it sends
            ``cold_rate * seconds`` distinct actions, the same number in
            every run, so the ledger ends every run at the same size.
            ``None`` for a time-bound closed loop.
    """

    closed_batch: int
    open_batch: int
    open_rate: float
    cold_rate: float | None


#: The seeded corpus the hot workload replays (7,602 distinct
#: fingerprints for seed 7, which fit the server's 4 x 4096 cache).
HOT_CORPUS = 10_000

SHAPES = {
    "serve-hot": Shape(
        closed_batch=250, open_batch=100, open_rate=50.0, cold_rate=None
    ),
    "serve-cold-ledger": Shape(
        closed_batch=250, open_batch=5, open_rate=60.0, cold_rate=2200.0
    ),
}

#: Closed-loop requests the pin probe digests per workload.
PIN_LINES = 4


@dataclasses.dataclass
class Traffic:
    """Encoded requests, their expected answers, and the phase plans.

    ``closed`` and ``open`` list line indices in send order; ``due`` is
    the open loop's arrival offsets (seconds from the phase start).
    With ``track_fingerprints`` (cold traffic), ``fingerprints`` maps each
    request line to its actions' fingerprint digests, for the ledger
    check.
    """

    lines: list[bytes] = dataclasses.field(default_factory=list)
    ids: list[int] = dataclasses.field(default_factory=list)
    sizes: list[int] = dataclasses.field(default_factory=list)
    expected: list[str] = dataclasses.field(default_factory=list)
    closed: list[int] = dataclasses.field(default_factory=list)
    open: list[int] = dataclasses.field(default_factory=list)
    due: list[float] = dataclasses.field(default_factory=list)
    track_fingerprints: bool = False
    fingerprints: dict[int, list[str]] = dataclasses.field(
        default_factory=dict
    )

    def add(self, engine: ComplianceEngine, batch: list) -> int:
        """Encode one request and its reference answer; return its index."""
        index = len(self.lines)
        request_id = index
        self.lines.append(
            encode_line(
                {
                    "op": "rule",
                    "id": request_id,
                    "actions": [action_to_dict(a) for a in batch],
                }
            )
        )
        rulings = engine.evaluate_many(batch)
        answer = encode_line(
            {
                "id": request_id,
                "ok": True,
                "rulings": [ruling_to_dict(r) for r in rulings],
            }
        )
        self.ids.append(request_id)
        self.sizes.append(len(batch))
        self.expected.append(digest(answer))
        if self.track_fingerprints:
            self.fingerprints[index] = [
                fingerprint_digest(action_fingerprint(a)) for a in batch
            ]
        return index


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def distinct_actions(seed: int, count: int) -> list:
    """The first ``count`` actions of the seeded stream with unseen
    fingerprints (the stream ``action_corpus(n, seed)`` prefixes)."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    found = []
    index = 0
    while len(found) < count:
        action = random_action(rng, index)
        index += 1
        fingerprint = action_fingerprint(action)
        if fingerprint not in seen:
            seen.add(fingerprint)
            found.append(action)
    return found


def arrivals(rate: float, count: int, seed: int) -> list[float]:
    """``count`` Poisson arrival offsets at ``rate`` per second."""
    rng = random.Random(f"arrivals:{seed}")
    due = []
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        due.append(clock)
    return due


def build(workload: str, seed: int, seconds: float) -> Traffic:
    """The traffic of one run: the closed loop's requests, and the open
    loop's for ``seconds / 2`` (traced runs)."""
    shape = SHAPES[workload]
    engine = ComplianceEngine(cache=RulingCache(maxsize=1 << 20))
    traffic = Traffic(track_fingerprints=shape.cold_rate is not None)
    open_count = int(shape.open_rate * seconds / 2)
    if shape.cold_rate is None:
        corpus = action_corpus(HOT_CORPUS, seed)
        for batch in _chunks(corpus, shape.closed_batch):
            traffic.closed.append(traffic.add(engine, batch))
        distinct = [
            traffic.add(engine, batch)
            for batch in _chunks(corpus, shape.open_batch)
        ]
        traffic.open = [distinct[i % len(distinct)] for i in range(open_count)]
    else:
        closed_count = int(shape.cold_rate * seconds)
        closed_count -= closed_count % shape.closed_batch
        actions = distinct_actions(
            seed, closed_count + open_count * shape.open_batch
        )
        closed, rest = actions[:closed_count], actions[closed_count:]
        for batch in _chunks(closed, shape.closed_batch):
            traffic.closed.append(traffic.add(engine, batch))
        for batch in _chunks(rest, shape.open_batch):
            traffic.open.append(traffic.add(engine, batch))
    traffic.due = arrivals(shape.open_rate, len(traffic.open), seed)
    return traffic


# -- pins ------------------------------------------------------------------------

PINS_PATH = BENCH_DIR / "pins.json"


def pin_probe(workload: str) -> dict[str, str]:
    """Digests of the first closed-loop requests and answers of the
    default seed; what ``pins.json`` commits."""
    shape = SHAPES[workload]
    count = PIN_LINES * shape.closed_batch
    if shape.cold_rate is None:
        actions = action_corpus(count, DEFAULT_SEED)
    else:
        actions = distinct_actions(DEFAULT_SEED, count)
    engine = ComplianceEngine(cache=RulingCache())
    probe = Traffic()
    for batch in _chunks(actions, shape.closed_batch):
        probe.add(engine, batch)
    return {
        "requests": hashlib.sha256(b"".join(probe.lines)).hexdigest(),
        "answers": hashlib.sha256(
            "".join(probe.expected).encode()
        ).hexdigest(),
    }


def check_pins(workload: str) -> list[str]:
    """Mismatches between the probe and the committed pins (empty: ok)."""
    with open(PINS_PATH) as handle:
        pinned = json.load(handle)[workload]
    probe = pin_probe(workload)
    return [
        f"{workload}: {key} digest {probe[key][:12]} != pinned "
        f"{pinned[key][:12]} (traffic or wire encoder changed)"
        for key in sorted(pinned)
        if probe[key] != pinned[key]
    ]


if __name__ == "__main__":
    # Regenerate pins.json (only when a traffic change is intended).
    pins = {name: pin_probe(name) for name in sorted(SHAPES)}
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH}")
