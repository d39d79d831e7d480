"""Parsing ``--fault-plan`` directives into crash points and injectors.

A workflow fault plan is a comma/semicolon-separated list of
``key=value`` tokens::

    crash-after-record=3
    storage-read=0.05,storage-bitrot=0.01,fault-seed=7
    crash-after-record=4;storage-read=0.1

Two distinct mechanisms hide behind one flag because they fail runs at
different layers: ``crash-after-record`` kills the *process* at a
journal boundary (the resume path's concern), while the ``storage-*``
probabilities build a :class:`~repro.faults.plan.FaultPlan` whose
injector makes the *substrate* misbehave (the retry/degradation path's
concern).  Keeping crash injection out of :class:`FaultKind` is
deliberate — a new kind would perturb every existing randomized chaos
plan's draw sequences.
"""

from __future__ import annotations

import dataclasses
import re

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

_TOKEN = re.compile(r"^([a-z-]+)=([0-9.]+)$")


class FaultPlanSyntaxError(ValueError):
    """A ``--fault-plan`` directive could not be parsed."""


@dataclasses.dataclass(frozen=True)
class WorkflowFaultPlan:
    """Crash point plus substrate fault probabilities for one run."""

    crash_after_record: int | None = None
    storage_read_probability: float = 0.0
    storage_bitrot_probability: float = 0.0
    fault_seed: int = 0

    @property
    def has_injector(self) -> bool:
        """Whether any substrate fault source is active."""
        return (
            self.storage_read_probability > 0
            or self.storage_bitrot_probability > 0
        )

    def build_fault_plan(self) -> FaultPlan:
        """The injector-facing plan for the substrate fault sources."""
        specs: list[FaultSpec] = []
        if self.storage_read_probability > 0:
            specs.append(
                FaultSpec(
                    kind=FaultKind.STORAGE_READ_ERROR,
                    probability=self.storage_read_probability,
                )
            )
        if self.storage_bitrot_probability > 0:
            specs.append(
                FaultSpec(
                    kind=FaultKind.STORAGE_BIT_ROT,
                    probability=self.storage_bitrot_probability,
                )
            )
        return FaultPlan(seed=self.fault_seed, specs=tuple(specs))

    def build_injector(self) -> FaultInjector | None:
        """A fresh injector, or ``None`` when no fault source is active.

        Each run (and each resume) must build its *own* injector so RNG
        streams start from the plan seed; resume then fast-forwards.
        """
        if not self.has_injector:
            return None
        return FaultInjector(self.build_fault_plan())

    def describe(self) -> str:
        """Stable one-line rendering, parseable back by :func:`parse`."""
        parts: list[str] = []
        if self.crash_after_record is not None:
            parts.append(f"crash-after-record={self.crash_after_record}")
        if self.storage_read_probability > 0:
            parts.append(f"storage-read={self.storage_read_probability}")
        if self.storage_bitrot_probability > 0:
            parts.append(
                f"storage-bitrot={self.storage_bitrot_probability}"
            )
        if self.has_injector:
            parts.append(f"fault-seed={self.fault_seed}")
        return ",".join(parts) or "none"


def parse_fault_plan(text: str) -> WorkflowFaultPlan:
    """Parse a ``--fault-plan`` directive.

    Raises:
        FaultPlanSyntaxError: On an unknown key or malformed token.
    """
    crash_after: int | None = None
    read_p = 0.0
    bitrot_p = 0.0
    seed = 0
    for raw in re.split(r"[,;]", text):
        token = raw.strip()
        if not token or token == "none":
            continue
        match = _TOKEN.match(token)
        if match is None:
            raise FaultPlanSyntaxError(
                f"malformed fault-plan token {token!r}; expected key=value"
            )
        key, value = match.groups()
        if key == "crash-after-record":
            crash_after = int(float(value))
            if crash_after < 1:
                raise FaultPlanSyntaxError(
                    "crash-after-record must be >= 1"
                )
        elif key == "storage-read":
            read_p = float(value)
        elif key == "storage-bitrot":
            bitrot_p = float(value)
        elif key == "fault-seed":
            seed = int(float(value))
        else:
            raise FaultPlanSyntaxError(
                f"unknown fault-plan key {key!r}; known keys: "
                "crash-after-record, storage-read, storage-bitrot, "
                "fault-seed"
            )
    return WorkflowFaultPlan(
        crash_after_record=crash_after,
        storage_read_probability=read_p,
        storage_bitrot_probability=bitrot_p,
        fault_seed=seed,
    )
