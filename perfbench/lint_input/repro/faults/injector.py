"""The fault injector: deterministic decisions plus an explanation log.

One injector instance serves a whole run.  Substrates consult it at each
fault point (``fires(kind, target, time)``); every decision is drawn from
an RNG derived from ``(plan.seed, kind)``, so two runs of the same code
under the same plan make byte-identical decisions *and* byte-identical
injection logs — the log is the audit trail that makes a chaotic run
explainable after the fact.

Per-kind RNG streams keep substrates independent: adding a storage fault
to a plan does not perturb the link-drop decision sequence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib

import random

from repro import obs
from repro.faults.plan import FaultKind, FaultPlan


def _derive_seed(seed: int, kind: FaultKind) -> int:
    """A stable per-kind seed (crc32 keeps it interpreter-independent)."""
    return (seed * 1_000_003 + zlib.crc32(kind.value.encode())) & 0x7FFFFFFF


@dataclasses.dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired.

    ``seq`` is the per-kind consultation ordinal at which the fault
    fired — the bookkeeping :meth:`FaultInjector.replaying` needs to
    re-apply a log verbatim.  It is excluded from equality, ``repr``,
    :meth:`render`, and :meth:`to_dict`, so logs compare and serialize
    exactly as they did before it existed.
    """

    time: float
    kind: FaultKind
    target: str
    detail: str
    seq: int = dataclasses.field(default=-1, compare=False, repr=False)

    def render(self) -> str:
        """A stable one-line rendering (the unit of log comparison)."""
        return (
            f"t={self.time:.6f} {self.kind.value} "
            f"target={self.target} {self.detail}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (one :meth:`FaultInjector.to_jsonl` line)."""
        return {
            "time": self.time,
            "kind": self.kind.value,
            "target": self.target,
            "detail": self.detail,
        }


class FaultInjector:
    """Draws fault decisions from a plan and logs everything that fires."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rngs = {
            kind: random.Random(_derive_seed(plan.seed, kind))
            for kind in FaultKind
        }
        self._log: list[InjectionRecord] = []
        self._consumed_schedules: set[tuple[int, float]] = set()
        self._draws: dict[FaultKind, int] = dict.fromkeys(FaultKind, 0)
        self._consultations: dict[FaultKind, int] = dict.fromkeys(
            FaultKind, 0
        )

    # -- decisions ---------------------------------------------------------------

    def fires(
        self, kind: FaultKind, target: str = "*", time: float = 0.0
    ) -> bool:
        """Whether a fault of ``kind`` hits ``target`` at this fault point.

        Scheduled times fire exactly once each, on the first consultation
        at or after the scheduled time; probabilistic sources draw one
        decision per matching spec per consultation.  Fired faults are
        appended to the injection log.
        """
        seq = self._consultations[kind]
        self._consultations[kind] = seq + 1
        fired_details: list[str] = []
        for index, spec in enumerate(self.plan.specs):
            if spec.kind is not kind or not spec.matches_target(target):
                continue
            for at in spec.at_times:
                key = (index, at)
                if at <= time and key not in self._consumed_schedules:
                    self._consumed_schedules.add(key)
                    fired_details.append(f"scheduled@{at:.6f}")
            if spec.probability > 0:
                self._draws[kind] += 1
                if self._rngs[kind].random() < spec.probability:
                    fired_details.append(f"p={spec.probability:.6f}")
        if not fired_details:
            return False
        self.record(kind, target, ";".join(fired_details), time, seq=seq)
        return True

    def magnitude(self, kind: FaultKind, target: str = "*") -> float:
        """The largest ``param`` among specs matching kind and target."""
        return max(
            (
                spec.param
                for spec in self.plan.for_kind(kind)
                if spec.matches_target(target)
            ),
            default=0.0,
        )

    # -- logging -----------------------------------------------------------------

    def record(
        self,
        kind: FaultKind,
        target: str,
        detail: str,
        time: float = 0.0,
        seq: int = -1,
    ) -> InjectionRecord:
        """Append an injection record (also used by consumers to log
        fault *consequences* like an interrupted acquisition)."""
        record = InjectionRecord(
            time=time, kind=kind, target=target, detail=detail, seq=seq
        )
        self._log.append(record)
        if obs.OBS.enabled:
            obs.event(
                "fault.injection",
                sim_time=time,
                kind=kind.value,
                target=target,
                detail=detail,
            )
            obs.OBS.registry.counter(
                "repro_faults_injected_total",
                "Fault injections that fired, by kind.",
            ).inc(kind=kind.value)
        return record

    @property
    def log(self) -> tuple[InjectionRecord, ...]:
        """Everything that fired, in firing order."""
        return tuple(self._log)

    def fired(self, kind: FaultKind | None = None) -> int:
        """How many faults fired (optionally of one kind)."""
        if kind is None:
            return len(self._log)
        return sum(1 for record in self._log if record.kind is kind)

    def render_log(self) -> str:
        """The whole log as text; identical seeds → identical bytes."""
        return "\n".join(record.render() for record in self._log)

    def to_jsonl(self) -> str:
        """The injection log as JSONL — the artifact a chaos run leaves.

        One JSON object per fired record, in firing order; '' when
        nothing fired.  Identical seeds render identical bytes, so the
        export composes with :meth:`log_digest`-style comparisons.
        """
        if not self._log:
            return ""
        return "\n".join(
            json.dumps(record.to_dict(), sort_keys=True)
            for record in self._log
        ) + "\n"

    def log_digest(self) -> str:
        """SHA-256 of the rendered log, for cheap equality assertions."""
        return hashlib.sha256(self.render_log().encode()).hexdigest()

    # -- resume support ----------------------------------------------------------

    def draw_counts(self) -> dict[str, int]:
        """Probabilistic RNG draws so far, keyed by fault-kind value.

        Zero-draw kinds are omitted, so the mapping serializes compactly
        and comparisons ignore kinds a run never consulted.
        """
        return {
            kind.value: count
            for kind, count in self._draws.items()
            if count
        }

    def consultation_counts(self) -> dict[str, int]:
        """:meth:`fires` consultations so far, keyed by fault-kind value."""
        return {
            kind.value: count
            for kind, count in self._consultations.items()
            if count
        }

    def fast_forward(
        self,
        draws: dict[str, int],
        consultations: dict[str, int] | None = None,
    ) -> None:
        """Advance per-kind RNG streams to recorded positions.

        A resumed run constructs a *fresh* injector from the same plan
        and fast-forwards it to the draw counts journaled at the last
        completed step boundary; subsequent decisions then fall exactly
        where the uninterrupted run's would have.

        Raises:
            ValueError: If a recorded count is behind this injector's
                current position (streams cannot rewind).
        """
        for key, count in draws.items():
            kind = FaultKind(key)
            behind = count - self._draws[kind]
            if behind < 0:
                raise ValueError(
                    f"cannot rewind {key} draws from {self._draws[kind]} "
                    f"to {count}"
                )
            rng = self._rngs[kind]
            for _ in range(behind):
                rng.random()
            self._draws[kind] = count
        for key, count in (consultations or {}).items():
            kind = FaultKind(key)
            if count < self._consultations[kind]:
                raise ValueError(
                    f"cannot rewind {key} consultations from "
                    f"{self._consultations[kind]} to {count}"
                )
            self._consultations[kind] = count

    def adopt_log(
        self, records: "list[InjectionRecord | dict[str, object]]"
    ) -> None:
        """Append already-fired records (from a journal) to this log.

        Adopted scheduled firings re-mark their one-shot schedule slots
        as consumed, so a resumed run does not fire them again.  No obs
        events or counters are emitted — these faults fired in the run
        being resumed, not in this one.
        """
        for entry in records:
            if isinstance(entry, InjectionRecord):
                record = entry
            else:
                record = InjectionRecord(
                    time=float(entry["time"]),  # type: ignore[arg-type]
                    kind=FaultKind(entry["kind"]),
                    target=str(entry["target"]),
                    detail=str(entry["detail"]),
                )
            self._log.append(record)
            self._mark_consumed(record)

    def _mark_consumed(self, record: InjectionRecord) -> None:
        for token in record.detail.split(";"):
            if not token.startswith("scheduled@"):
                continue
            at = float(token[len("scheduled@") :])
            for index, spec in enumerate(self.plan.specs):
                if spec.kind is not record.kind:
                    continue
                if not spec.matches_target(record.target):
                    continue
                for scheduled in spec.at_times:
                    if abs(scheduled - at) < 1e-9:
                        self._consumed_schedules.add((index, scheduled))

    @classmethod
    def replaying(
        cls, plan: FaultPlan, log: "tuple[InjectionRecord, ...]"
    ) -> "ReplayFaultInjector":
        """An injector that re-applies ``log`` verbatim instead of drawing."""
        return ReplayFaultInjector(plan, log)


class ReplayFaultInjector(FaultInjector):
    """Re-applies a recorded injection log instead of drawing decisions.

    Each :meth:`fires` call is matched against the recorded log by
    ``(kind, consultation ordinal)``: the fault points that fired in the
    original run fire again — with the recorded target, time, and detail
    — and every other consultation stays quiet.  Running the same code
    under a replay injector therefore reproduces the original log
    byte-for-byte, without consuming any randomness.
    """

    def __init__(
        self, plan: FaultPlan, log: "tuple[InjectionRecord, ...]"
    ) -> None:
        super().__init__(plan)
        self._recorded: dict[FaultKind, dict[int, InjectionRecord]] = {}
        for record in log:
            if record.seq < 0:
                raise ValueError(
                    "replay requires records with consultation ordinals; "
                    "pass the .log of the original injector"
                )
            self._recorded.setdefault(record.kind, {})[record.seq] = record

    def fires(
        self, kind: FaultKind, target: str = "*", time: float = 0.0
    ) -> bool:
        seq = self._consultations[kind]
        self._consultations[kind] = seq + 1
        recorded = self._recorded.get(kind, {}).get(seq)
        if recorded is None:
            return False
        self.record(
            kind, recorded.target, recorded.detail, recorded.time, seq=seq
        )
        return True
