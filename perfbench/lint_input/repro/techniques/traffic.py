"""Background traffic generators for the anonymity-network experiments.

The watermark detector must pick its target out of a population of
ordinary flows; these generators create that population.  All generators
schedule ``send_downstream`` calls on a circuit (or any object exposing
that method) against the shared simulator.
"""

from __future__ import annotations

import random
from typing import Protocol


class DownstreamSender(Protocol):
    """Anything that can inject one downstream cell now."""

    sim: object

    def send_downstream(self, size: int = 512) -> None:  # pragma: no cover
        ...


class PoissonFlow:
    """A memoryless flow at a constant mean rate.

    Args:
        rate: Mean packets per second.
        seed: RNG seed for inter-arrival draws.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self.rate = rate
        self._rng = random.Random(seed)

    def schedule(
        self, channel, start: float, duration: float, size: int = 512
    ) -> int:
        """Schedule the flow's packets on a channel.

        Args:
            channel: Circuit/session exposing ``send_downstream`` and ``sim``.
            start: Simulation time the flow begins.
            duration: Flow length in seconds.
            size: Cell size.

        Returns:
            The number of packets scheduled.
        """
        sim = channel.sim
        count = 0
        t = start + self._rng.expovariate(self.rate)
        while t < start + duration:
            sim.schedule_at(t, lambda: channel.send_downstream(size))
            count += 1
            t += self._rng.expovariate(self.rate)
        return count


class OnOffFlow:
    """A bursty flow alternating ON (Poisson at ``rate``) and OFF periods.

    Bursty cross-traffic is the hard case for naive flow correlation:
    natural rate variation creates spurious correlations between unrelated
    flows, which is why the deliberate PN modulation wins.
    """

    def __init__(
        self,
        rate: float,
        mean_on: float = 2.0,
        mean_off: float = 1.0,
        seed: int = 0,
    ) -> None:
        if rate <= 0 or mean_on <= 0 or mean_off <= 0:
            raise ValueError("rate and period means must be positive")
        self.rate = rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = random.Random(seed)

    def schedule(
        self, channel, start: float, duration: float, size: int = 512
    ) -> int:
        """Schedule the bursty flow's packets; see :meth:`PoissonFlow.schedule`."""
        sim = channel.sim
        count = 0
        t = start
        end = start + duration
        on = True
        while t < end:
            period = self._rng.expovariate(
                1.0 / (self.mean_on if on else self.mean_off)
            )
            period_end = min(t + period, end)
            if on:
                next_packet = t + self._rng.expovariate(self.rate)
                while next_packet < period_end:
                    sim.schedule_at(
                        next_packet, lambda: channel.send_downstream(size)
                    )
                    count += 1
                    next_packet += self._rng.expovariate(self.rate)
            t = period_end
            on = not on
        return count
