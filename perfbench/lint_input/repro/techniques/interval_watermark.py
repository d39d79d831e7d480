"""A square-wave (interval) flow watermark — the older comparator.

Before spread-spectrum watermarks, active traffic analysis used periodic
on/off rate modulation: raise the rate for half a period, lower it for the
other half, repeat.  It is easy to detect for the investigator — fold
arrivals modulo the period and compare the halves — but its strong
periodicity is exactly what an adversary's autocorrelation test finds
(see :mod:`repro.techniques.visibility`).  The paper's cited watermark
[93] uses a *long PN code* precisely to avoid that visibility.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.signal import fold_half_counts, offset_grid
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class SquareWaveConfig:
    """Parameters of the periodic watermark.

    Attributes:
        period: Full on/off cycle length in seconds.
        n_periods: Number of cycles embedded.
        base_rate: Carrier mean rate in packets/second.
        amplitude: Fractional modulation depth.
        threshold_sigmas: Investigator-side decision threshold, in null
            standard deviations.
    """

    period: float = 4.0
    n_periods: int = 16
    base_rate: float = 20.0
    amplitude: float = 0.3
    threshold_sigmas: float = 4.0

    def __post_init__(self) -> None:
        if self.period <= 0 or self.n_periods < 1:
            raise ValueError("period and n_periods must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0 < self.amplitude < 1:
            raise ValueError("amplitude must be in (0, 1)")

    @property
    def duration(self) -> float:
        """Total embedding time."""
        return self.period * self.n_periods


class SquareWaveWatermarker:
    """Embeds the periodic watermark on a downstream channel."""

    def __init__(self, config: SquareWaveConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = random.Random(seed)

    def embed(self, channel, start: float, size: int = 512) -> int:
        """Schedule the modulated flow; returns the packet count."""
        config = self.config
        sim = channel.sim
        half = config.period / 2.0
        count = 0
        for cycle in range(config.n_periods):
            for half_index, sign in enumerate((1.0, -1.0)):
                rate = config.base_rate * (1.0 + config.amplitude * sign)
                t = start + cycle * config.period + half_index * half
                segment_end = t + half
                t += self._rng.expovariate(rate)
                while t < segment_end:
                    sim.schedule_at(t, lambda: channel.send_downstream(size))
                    count += 1
                    t += self._rng.expovariate(rate)
        return count


@dataclasses.dataclass(frozen=True)
class SquareWaveDetection:
    """Investigator-side detection outcome."""

    statistic: float
    threshold: float
    detected: bool
    n_packets: int


class SquareWaveDetector:
    """Folds arrivals modulo the period and compares the halves."""

    def __init__(self, config: SquareWaveConfig) -> None:
        self.config = config

    def detect(
        self,
        arrival_times: list[float],
        start: float,
        max_offset: float = 1.0,
        offset_step: float = 0.1,
    ) -> SquareWaveDetection:
        """Decide whether the periodic watermark is present.

        The statistic is the normalized difference between first-half and
        second-half counts, maximized over a small delay search; under the
        null it is approximately standard normal.

        The whole delay search runs through the vectorized
        :func:`repro.signal.fold_half_counts` kernel — one broadcasted
        fold instead of one pass over the arrivals per trial offset.  The
        scalar sweep survives as :func:`_reference_detect` for the
        differential tests.

        Raises:
            ValueError: If ``offset_step`` is not positive or
                ``max_offset`` is negative.
        """
        offsets = offset_grid(max_offset, offset_step)
        config = self.config
        first_half, total = fold_half_counts(
            arrival_times, start, offsets, config.period, config.duration
        )
        second_half = total - first_half
        statistics = np.zeros(offsets.size, dtype=float)
        occupied = total > 0
        statistics[occupied] = (
            first_half[occupied] - second_half[occupied]
        ) / np.sqrt(total[occupied])
        best = float(statistics.max())
        return SquareWaveDetection(
            statistic=best,
            threshold=self.config.threshold_sigmas,
            detected=best >= self.config.threshold_sigmas,
            n_packets=len(arrival_times),
        )

    def _statistic(self, arrival_times: list[float], start: float) -> float:
        config = self.config
        times = np.asarray(arrival_times, dtype=float) - start
        in_window = times[
            (times >= 0) & (times < config.duration)
        ]
        if in_window.size == 0:
            return 0.0
        phase = np.mod(in_window, config.period)
        first_half = int((phase < config.period / 2).sum())
        second_half = int(in_window.size - first_half)
        total = first_half + second_half
        if total == 0:
            return 0.0
        # Under the null, first_half ~ Binomial(total, 0.5).
        return (first_half - second_half) / np.sqrt(total)


def _reference_detect(
    detector: SquareWaveDetector,
    arrival_times: list[float],
    start: float,
    max_offset: float = 1.0,
    offset_step: float = 0.1,
) -> SquareWaveDetection:
    """The original scalar delay sweep, kept for differential tests.

    One full fold of the arrivals per trial offset; production detection
    batches every offset through :func:`repro.signal.fold_half_counts`.
    """
    best = float("-inf")
    offset = 0.0
    while offset <= max_offset:
        statistic = detector._statistic(arrival_times, start + offset)
        best = max(best, statistic)
        offset += offset_step
    return SquareWaveDetection(
        statistic=best,
        threshold=detector.config.threshold_sigmas,
        detected=best >= detector.config.threshold_sigmas,
        n_packets=len(arrival_times),
    )


class SquareWaveTechnique(Technique):
    """The periodic watermark with the same legal profile as the DSSS one."""

    name = "square-wave interval flow watermark"

    def __init__(self, config: SquareWaveConfig | None = None) -> None:
        self.config = config or SquareWaveConfig()

    def watermarker(self, seed: int = 0) -> SquareWaveWatermarker:
        """An embedder bound to this configuration."""
        return SquareWaveWatermarker(self.config, seed=seed)

    def detector(self) -> SquareWaveDetector:
        """A detector bound to this configuration."""
        return SquareWaveDetector(self.config)

    def required_actions(self) -> list[InvestigativeAction]:
        return [
            InvestigativeAction(
                description=(
                    "record packet arrival times (rates only) at the "
                    "suspect's ISP"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.NON_CONTENT,
                timing=Timing.REAL_TIME,
                context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
            )
        ]
