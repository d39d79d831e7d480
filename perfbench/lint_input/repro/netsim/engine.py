"""Discrete-event simulation core.

A minimal, deterministic event-heap simulator shared by every substrate in
the reproduction: the wired/wireless network, the anonymity overlays, and
the investigative techniques that observe them.  Time is a float in
seconds; ties are broken by insertion order so runs are reproducible.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections.abc import Callable


@dataclasses.dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry; ordering is (time, sequence number)."""

    time: float
    sequence: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Cancel the event; a cancelled event's callback never runs."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """The simulation time the event is scheduled for."""
        return self._event.time


class Simulator:
    """A deterministic discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Args:
            delay: Non-negative offset from the current simulation time.
            callback: Zero-argument callable executed at the target time.

        Returns:
            An :class:`EventHandle` that can cancel the event.

        Raises:
            ValueError: If ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        event = _ScheduledEvent(
            time=self._now + delay,
            sequence=next(self._sequence),
            callback=callback,
        )
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        return self.schedule(time - self._now, callback)

    def run(self, until: float | None = None) -> None:
        """Run events in time order.

        Args:
            until: If given, stop once the next event would occur after
                this time (the clock is advanced to ``until``); otherwise
                run until the queue is empty.
        """
        while self._heap:
            event = self._heap[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = max(self._now, event.time)
            self._processed += 1
            event.callback()
        if until is not None:
            self._now = max(self._now, until)

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns:
            ``True`` if an event ran, ``False`` if the queue was empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = max(self._now, event.time)
            self._processed += 1
            event.callback()
            return True
        return False
