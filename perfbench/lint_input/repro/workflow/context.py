"""What a running step can see and do.

A step body receives exactly one argument — a :class:`StepContext` —
and everything it may legitimately touch hangs off it: its declared
input artifacts, a per-step seeded RNG, the simulation clock, the run's
fault injector, and — crucially — :meth:`StepContext.require_process`,
the legal gate an acquisition step must clear before touching the
substrate.  The gate raises
:class:`~repro.core.errors.InsufficientProcess` when the workflow's
declared instruments do not cover the requirement, and the engine turns
that into abort-and-suppress: a procedural slip poisons the run, exactly
the paper's point.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from typing import Any

from repro.core.action import InvestigativeAction
from repro.core.enums import ProcessKind
from repro.core.errors import InsufficientProcess
from repro.faults.errors import TransientReadError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.workflow.artifacts import Artifact


class StepFailure(Exception):
    """A step body signalling a domain failure the policy should handle."""


class SimClock:
    """The run's simulation clock; all timestamps come from here."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> float:
        """Move simulated time forward; returns the new time.

        Raises:
            ValueError: On a negative delta — simulated time, like a
                custody log, never runs backwards.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self.now += seconds
        return self.now


@dataclasses.dataclass(frozen=True)
class Subject:
    """One evidence item a workflow processes.

    Attributes:
        subject_id: Stable identifier (seed-derived, never a live object
            id) used in journals and reports.
        description: Human-readable description of the evidence.
        fingerprint: Canonical string content of the evidence at intake;
            its hash anchors the chain of custody.
        action: The investigative action by which the evidence came into
            custody — what the compliance engine rules on.
        payload: The domain object(s) the steps operate on (a block
            device, a mail provider, ...).
    """

    subject_id: str
    description: str
    fingerprint: str
    action: InvestigativeAction
    payload: Any


def step_rng_seed(run_seed: int, step_id: str, attempt: int) -> int:
    """A stable per-(run, step, attempt) RNG seed.

    crc32 keeps the derivation interpreter-independent, mirroring the
    fault injector's per-kind stream derivation.
    """
    return (
        run_seed * 1_000_003 + zlib.crc32(step_id.encode()) * 31 + attempt
    ) & 0x7FFFFFFF


@dataclasses.dataclass
class StepContext:
    """Everything one step attempt is allowed to touch."""

    step_id: str
    subject: Subject
    clock: SimClock
    rng: random.Random
    inputs: dict[str, Artifact]
    held_process: ProcessKind
    attempt: int
    injector: FaultInjector | None = None
    _custody_events: list[str] = dataclasses.field(default_factory=list)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def advance(self, seconds: float) -> float:
        """Advance the run's simulation clock."""
        return self.clock.advance(seconds)

    def require_process(self, required: ProcessKind) -> ProcessKind:
        """The legal gate: assert the run holds sufficient process.

        Every acquisition step body must call this before touching the
        substrate — it is what the flow engine's REPRO110 rule looks
        for, and what makes an undeclared acquisition fail closed.

        Raises:
            InsufficientProcess: If the workflow's declared instruments
                do not satisfy ``required``.
        """
        if not self.held_process.satisfies(required):
            raise InsufficientProcess(
                required,
                self.held_process,
                f"workflow step {self.step_id!r}",
            )
        return self.held_process

    def input(self, kind: str) -> Artifact:
        """One declared input artifact.

        Raises:
            KeyError: If the step did not declare ``kind`` as an input.
        """
        return self.inputs[kind]

    def make(self, kind: str, content: bytes | str, **meta: str) -> Artifact:
        """Build an output artifact attributed to this step."""
        payload = content.encode() if isinstance(content, str) else content
        return Artifact(
            kind=kind,
            content=payload,
            meta=tuple(sorted(meta.items())),
            produced_by=self.step_id,
        )

    def note_custody(self, event: str) -> None:
        """Queue a custody-log event; the engine records it with the
        step's completion at the current step boundary."""
        self._custody_events.append(event)

    def maybe_fault(self, target: str) -> None:
        """Consult the fault injector at a named fault point.

        Substrates without built-in fault points (the mail store) call
        this so chaos plans reach them too.

        Raises:
            TransientReadError: If a ``STORAGE_READ_ERROR`` fault fires.
        """
        if self.injector is None:
            return
        if self.injector.fires(
            FaultKind.STORAGE_READ_ERROR, target=target, time=self.now
        ):
            raise TransientReadError(
                f"injected fault at {target}",
                kind=FaultKind.STORAGE_READ_ERROR,
                target=target,
                time=self.now,
            )
