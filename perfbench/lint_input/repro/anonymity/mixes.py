"""Batching mix strategies: the classic defences against timing analysis.

A DSSS flow watermark survives per-cell jitter because its chips integrate
over many packets; batching mixes attack it differently, by quantizing or
reordering release times.  These strategies transform a raw arrival-time
series into the series an observer would see *after* a mix at the last
hop, letting the ablation benchmarks measure how much batching each
watermark configuration survives.

All strategies are pure: ``apply(arrivals) -> releases`` with
``len(releases) == len(arrivals)`` and releases never earlier than the
corresponding arrivals.
"""

from __future__ import annotations

import abc
import math
import random


class MixStrategy(abc.ABC):
    """Transforms arrival times into post-mix release times."""

    @abc.abstractmethod
    def apply(self, arrivals: list[float]) -> list[float]:
        """Map arrival times to release times (sorted, same length)."""

    @staticmethod
    def _check(arrivals: list[float], releases: list[float]) -> list[float]:
        if len(releases) != len(arrivals):
            raise AssertionError("mix must preserve cell count")
        return sorted(releases)


class NoMix(MixStrategy):
    """Identity: cells leave when they arrive."""

    def apply(self, arrivals: list[float]) -> list[float]:
        return sorted(arrivals)


class TimedMix(MixStrategy):
    """Release everything accumulated at each tick of a fixed interval.

    Quantizes timing to the tick grid — the canonical low-latency-killing
    defence.  Chips much longer than the interval survive; chips shorter
    than it are destroyed.
    """

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval

    def apply(self, arrivals: list[float]) -> list[float]:
        releases = [
            math.ceil(t / self.interval) * self.interval
            if t % self.interval != 0
            else t
            for t in arrivals
        ]
        return self._check(arrivals, releases)


class ThresholdMix(MixStrategy):
    """Release in batches of ``k``: a batch leaves when its k-th cell lands.

    Converts smooth rate variation into bursts while *preserving the mean
    rate envelope* — the watermark's chip-level counts survive better than
    under a coarse timed mix.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("batch size must be >= 1")
        self.k = k

    def apply(self, arrivals: list[float]) -> list[float]:
        ordered = sorted(arrivals)
        releases: list[float] = []
        for start in range(0, len(ordered), self.k):
            batch = ordered[start : start + self.k]
            release_at = batch[-1]
            releases.extend([release_at] * len(batch))
        return self._check(arrivals, releases)


class PoolMix(MixStrategy):
    """A pool mix: each round releases a random subset of the pool.

    Cells enter a pool; every ``round_interval`` seconds the mix releases
    each pooled cell independently with probability ``release_fraction``.
    Randomized holding adds heavy-tailed delay *and* reordering — the
    hardest of the three for the watermark.
    """

    def __init__(
        self,
        round_interval: float,
        release_fraction: float = 0.6,
        seed: int = 0,
        max_rounds_held: int = 50,
    ) -> None:
        if round_interval <= 0:
            raise ValueError("round_interval must be positive")
        if not 0 < release_fraction <= 1:
            raise ValueError("release_fraction must be in (0, 1]")
        self.round_interval = round_interval
        self.release_fraction = release_fraction
        self.max_rounds_held = max_rounds_held
        self._rng = random.Random(seed)

    def apply(self, arrivals: list[float]) -> list[float]:
        if not arrivals:
            return []
        ordered = sorted(arrivals)
        releases: list[float] = []
        pool: list[tuple[float, int]] = []  # (arrival, rounds held)
        index = 0
        tick = (
            math.floor(ordered[0] / self.round_interval) + 1
        ) * self.round_interval
        while index < len(ordered) or pool:
            while index < len(ordered) and ordered[index] <= tick:
                pool.append((ordered[index], 0))
                index += 1
            survivors: list[tuple[float, int]] = []
            for arrival, rounds in pool:
                held_too_long = rounds >= self.max_rounds_held
                if held_too_long or self._rng.random() < self.release_fraction:
                    releases.append(tick)
                else:
                    survivors.append((arrival, rounds + 1))
            pool = survivors
            tick += self.round_interval
        return self._check(arrivals, releases)
