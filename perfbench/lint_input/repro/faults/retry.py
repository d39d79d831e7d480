"""Bounded retries with exponential backoff in simulation time.

Real investigations re-apply after a denial and re-execute after an
instrument expires; they do not retry forever.  A :class:`RetryPolicy`
is pure data — attempt count, base delay, multiplier, cap — so the
backoff schedule is computable (and testable) without running anything,
and the elapsed time it implies is *simulated* seconds, composing with
the event-driven substrates rather than sleeping.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable
from typing import TypeVar

from repro import obs
from repro.faults.errors import FaultError

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: attempt ``k`` waits ``base * multiplier**k``.

    Attributes:
        max_attempts: Total tries including the first (>= 1).
        base_delay: Simulated seconds before the first retry.
        multiplier: Backoff growth factor per retry (>= 1).
        max_delay: Cap on any single backoff interval.
        jitter: Fractional symmetric jitter applied to each interval
            (``0.25`` spreads an interval over ±25%).  ``0.0`` — the
            default — leaves the schedule byte-identical to a policy
            without jitter.
        jitter_seed: Seed for the jitter draws.  Each interval's factor
            is derived from ``(jitter_seed, retry_index)`` alone, so a
            schedule is a pure function of the policy — no shared RNG
            stream, no call-order sensitivity.
        max_total_backoff: Cap on the *sum* of all backoff intervals.
            Later intervals are clipped (possibly to ``0.0``) once the
            cumulative schedule reaches the cap; ``None`` leaves the
            total unbounded as before.
    """

    max_attempts: int = 3
    base_delay: float = 60.0
    multiplier: float = 2.0
    max_delay: float = 6 * 3600.0
    jitter: float = 0.0
    jitter_seed: int = 0
    max_total_backoff: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"negative base_delay: {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")
        if self.max_total_backoff is not None and self.max_total_backoff < 0:
            raise ValueError(
                f"negative max_total_backoff: {self.max_total_backoff}"
            )

    def delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0 = first retry).

        The jittered interval (when ``jitter > 0``) is deterministic:
        the same policy always produces the same interval for the same
        index.  ``max_total_backoff`` is a property of the whole
        schedule and is applied by :meth:`schedule`, not here.
        """
        if retry_index < 0:
            raise ValueError(f"negative retry index: {retry_index}")
        interval = min(
            self.base_delay * self.multiplier**retry_index, self.max_delay
        )
        if self.jitter == 0.0:
            return interval
        draw = random.Random(
            self.jitter_seed * 1_000_003 + retry_index
        ).random()
        jittered = interval * (1.0 + self.jitter * (2.0 * draw - 1.0))
        return min(max(jittered, 0.0), self.max_delay)

    def schedule(self) -> tuple[float, ...]:
        """Every backoff interval the policy allows, in order.

        When ``max_total_backoff`` is set, intervals are clipped so the
        cumulative sum never exceeds it; intervals past the budget
        collapse to ``0.0`` (the retry happens immediately rather than
        being forfeited — the *attempt* bound is ``max_attempts``).
        """
        intervals = [
            self.delay(index) for index in range(self.max_attempts - 1)
        ]
        if self.max_total_backoff is not None:
            total = 0.0
            for index, interval in enumerate(intervals):
                allowed = max(self.max_total_backoff - total, 0.0)
                clipped = min(interval, allowed)
                intervals[index] = clipped
                total += clipped
        return tuple(intervals)

    def total_backoff(self) -> float:
        """Worst-case simulated seconds spent waiting across all retries."""
        return sum(self.schedule())


def run_with_retries(
    fn: Callable[[float], T],
    policy: RetryPolicy,
    start: float = 0.0,
    retry_on: tuple[type[BaseException], ...] = (FaultError,),
    on_retry: Callable[[int, BaseException, float], None] | None = None,
) -> tuple[T, int, float]:
    """Call ``fn(sim_time)`` under a retry policy.

    Args:
        fn: The operation; receives the simulated time of this attempt.
        policy: Backoff schedule and attempt bound.
        start: Simulated time of the first attempt.
        retry_on: Exception types that trigger a retry; anything else
            propagates immediately.
        on_retry: Optional callback ``(retry_index, exception,
            next_attempt_time)`` invoked before each backoff.

    Returns:
        ``(result, attempts_used, elapsed_sim_seconds)``.

    Raises:
        The last exception, if every attempt failed.
    """
    now = start
    intervals = policy.schedule()
    for attempt in range(policy.max_attempts):
        try:
            # A failing fn raises through the span, which closes with an
            # ``error`` attribute before the retry machinery catches it.
            with obs.span("retry.attempt", sim_time=now, attempt=attempt):
                result = fn(now)
            return result, attempt + 1, now - start
        except retry_on as exc:
            if attempt == policy.max_attempts - 1:
                raise
            now += intervals[attempt]
            if on_retry is not None:
                on_retry(attempt, exc, now)
    raise AssertionError("unreachable: loop returns or raises")
