"""Fault plans: what goes wrong, where, and how often.

A :class:`FaultPlan` is a declarative, seedable description of a hostile
substrate: each :class:`FaultSpec` names a fault kind, an optional target
filter, a per-event probability, and/or explicit scheduled times.  Plans
are plain frozen data so the same plan can be replayed exactly — the
:class:`~repro.faults.injector.FaultInjector` derives every random
decision from ``(plan.seed, fault kind)``, which is what makes a chaos
run reproducible from its seed alone.
"""

from __future__ import annotations

import dataclasses
import enum
import random


class FaultKind(enum.Enum):
    """Taxonomy of injectable faults, grouped by substrate."""

    #: A packet in transit on a wired link is silently dropped.
    LINK_DROP = "link-drop"
    #: A packet is delivered twice (e.g. a retransmission artifact).
    LINK_DUPLICATE = "link-duplicate"
    #: A packet is held back so it arrives after later traffic.
    LINK_REORDER = "link-reorder"
    #: The link is momentarily down; the packet never leaves the sender.
    LINK_FLAP = "link-flap"
    #: A collection tap misses a passing packet entirely.
    TAP_DROPOUT = "tap-dropout"
    #: An onion relay churns away mid-flow; the cell is lost.
    RELAY_CHURN = "relay-churn"
    #: A block-device read fails transiently (retryable).
    STORAGE_READ_ERROR = "storage-read-error"
    #: A block-device read returns silently corrupted data once.
    STORAGE_BIT_ROT = "storage-bit-rot"
    #: The magistrate denies an otherwise sufficient application.
    COURT_DENIAL = "court-denial"
    #: The magistrate sits on the application before deciding.
    COURT_LATENCY = "court-latency"
    #: An instrument issues with a drastically shortened validity window.
    INSTRUMENT_EXPIRY = "instrument-expiry"


#: Kinds whose ``param`` is a duration in simulated seconds.
_DURATION_PARAM_KINDS = frozenset(
    {
        FaultKind.LINK_REORDER,
        FaultKind.COURT_LATENCY,
        FaultKind.INSTRUMENT_EXPIRY,
    }
)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault source in a plan.

    Attributes:
        kind: What fails.
        probability: Per-consultation chance the fault fires (0 disables
            the probabilistic source; scheduled times still apply).
        at_times: Simulation times at which the fault fires exactly once
            each, on the first consultation at or after that time.
        target: Filter on the substrate element's label; ``"*"`` matches
            everything, otherwise a substring match.
        param: Kind-specific magnitude — extra delay for
            ``LINK_REORDER``/``COURT_LATENCY``, validity seconds for
            ``INSTRUMENT_EXPIRY``; ignored by the boolean kinds.
    """

    kind: FaultKind
    probability: float = 0.0
    at_times: tuple[float, ...] = ()
    target: str = "*"
    param: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1]: {self.probability}"
            )
        if any(t < 0 for t in self.at_times):
            raise ValueError(f"negative scheduled time in {self.at_times}")
        if self.param < 0:
            raise ValueError(f"negative param: {self.param}")
        if not self.target:
            raise ValueError("target must be '*' or a non-empty substring")

    def matches_target(self, target: str) -> bool:
        """Whether this spec applies to a substrate element's label."""
        return self.target == "*" or self.target in target

    def describe(self) -> str:
        """One stable line describing the spec (used in plan digests)."""
        parts = [self.kind.value, f"p={self.probability:.6f}"]
        if self.at_times:
            times = ",".join(f"{t:.6f}" for t in self.at_times)
            parts.append(f"at=[{times}]")
        if self.target != "*":
            parts.append(f"target={self.target}")
        if self.param:
            parts.append(f"param={self.param:.6f}")
        return " ".join(parts)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault sources active during a run."""

    seed: int
    specs: tuple[FaultSpec, ...] = ()

    def for_kind(self, kind: FaultKind) -> tuple[FaultSpec, ...]:
        """The specs targeting one fault kind, in declaration order."""
        return tuple(spec for spec in self.specs if spec.kind is kind)

    def kinds(self) -> tuple[FaultKind, ...]:
        """The distinct kinds this plan can inject, in taxonomy order."""
        present = {spec.kind for spec in self.specs}
        return tuple(kind for kind in FaultKind if kind in present)

    def describe(self) -> str:
        """A stable multi-line description of the whole plan."""
        lines = [f"seed={self.seed}"]
        lines.extend(spec.describe() for spec in self.specs)
        return "\n".join(lines)

    @classmethod
    def randomized(
        cls,
        seed: int,
        intensity: float = 0.1,
        kinds: tuple[FaultKind, ...] = tuple(FaultKind),
    ) -> "FaultPlan":
        """Draw a random plan, deterministically from ``seed``.

        Args:
            seed: Drives both which kinds are active and their rates, and
                later seeds the injector's own decisions.
            intensity: Upper bound on per-event fault probability; also
                scales how many kinds activate.
            kinds: The pool of kinds the plan may draw from.

        Returns:
            A plan where each selected kind gets one spec with a
            probability in ``(0, intensity]`` and a kind-appropriate
            ``param``.
        """
        if not 0.0 < intensity <= 1.0:
            raise ValueError(f"intensity must be in (0, 1]: {intensity}")
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for kind in kinds:
            if rng.random() >= 0.5:
                continue
            param = 0.0
            if kind in _DURATION_PARAM_KINDS:
                if kind is FaultKind.COURT_LATENCY:
                    param = rng.uniform(600.0, 6 * 3600.0)
                elif kind is FaultKind.INSTRUMENT_EXPIRY:
                    param = rng.uniform(1.0, 300.0)
                else:
                    param = rng.uniform(0.01, 0.25)
            specs.append(
                FaultSpec(
                    kind=kind,
                    probability=rng.uniform(0.01, intensity),
                    param=param,
                )
            )
        return cls(seed=seed, specs=tuple(specs))
