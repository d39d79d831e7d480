"""The adversary's watermark-visibility test.

The flip side of active watermarking: a sophisticated anonymity-network
operator (or the watermarked party) can test their own flows for rate
modulation.  The classic detector is an autocorrelation periodicity test
on the flow's rate series — periodic watermarks (square waves) light up
at their period's lag, while a long-PN-code DSSS watermark is spread flat
across lags and stays under the noise floor.  This asymmetry is the
technical reason the paper's cited attack [93] uses a *long PN code*.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.signal import autocorrelation_spectrum


@dataclasses.dataclass(frozen=True)
class VisibilityResult:
    """Outcome of the adversary's periodicity test.

    Attributes:
        statistic: Maximum absolute autocorrelation over the tested lags,
            in null standard deviations (``sqrt(n)``-normalized).
        threshold: Decision threshold in the same units.
        watermark_suspected: Whether the adversary flags the flow.
        peak_lag: The lag (in windows) of the strongest autocorrelation.
    """

    statistic: float
    threshold: float
    watermark_suspected: bool
    peak_lag: int


class AutocorrelationVisibilityTest:
    """Flags flows whose rate series shows periodic structure.

    Args:
        window: Rate-sampling window in seconds.  Should be comparable to
            (or smaller than) the modulation granularity being hunted.
        max_lag: Largest lag, in windows, to test.
        threshold_sigmas: Decision threshold; under the white-noise null
            each normalized autocorrelation is ~N(0, 1).
    """

    def __init__(
        self,
        window: float = 0.5,
        max_lag: int = 64,
        threshold_sigmas: float = 4.0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_lag < 1:
            raise ValueError("max_lag must be >= 1")
        self.window = window
        self.max_lag = max_lag
        self.threshold_sigmas = threshold_sigmas

    def rate_series(
        self, arrival_times: list[float], start: float, duration: float
    ) -> np.ndarray:
        """Bin arrivals into the windowed rate series."""
        n_bins = max(1, int(round(duration / self.window)))
        edges = start + np.arange(n_bins + 1) * self.window
        counts, __ = np.histogram(np.asarray(arrival_times), bins=edges)
        return counts.astype(float)

    def test(
        self, arrival_times: list[float], start: float, duration: float
    ) -> VisibilityResult:
        """Run the periodicity test on one flow.

        Every lag is scanned at once through the FFT-based
        :func:`repro.signal.autocorrelation_spectrum` kernel; the scalar
        per-lag loop survives as :func:`_reference_test` for the
        differential tests.
        """
        series = self.rate_series(arrival_times, start, duration)
        centered = series - series.mean()
        denominator = float(np.dot(centered, centered))
        n = centered.size
        if denominator == 0 or n < 4:
            return VisibilityResult(
                statistic=0.0,
                threshold=self.threshold_sigmas,
                watermark_suspected=False,
                peak_lag=0,
            )
        max_lag = min(self.max_lag, n - 2)
        autocorrelations = autocorrelation_spectrum(series, max_lag)
        # Normalized: under the null, each autocorrelation is ~N(0, 1/n).
        statistics = np.abs(autocorrelations) * np.sqrt(n)
        best_index = int(np.argmax(statistics))
        best_stat = float(statistics[best_index])
        best_lag = best_index + 1 if best_stat > 0 else 0
        return VisibilityResult(
            statistic=best_stat,
            threshold=self.threshold_sigmas,
            watermark_suspected=best_stat >= self.threshold_sigmas,
            peak_lag=best_lag,
        )


def _reference_test(
    tester: AutocorrelationVisibilityTest,
    arrival_times: list[float],
    start: float,
    duration: float,
) -> VisibilityResult:
    """The original per-lag scalar scan, kept for differential tests.

    One overlap dot product per lag — O(max_lag x n) against the FFT
    path's O(n log n).
    """
    series = tester.rate_series(arrival_times, start, duration)
    centered = series - series.mean()
    denominator = float(np.dot(centered, centered))
    n = centered.size
    if denominator == 0 or n < 4:
        return VisibilityResult(
            statistic=0.0,
            threshold=tester.threshold_sigmas,
            watermark_suspected=False,
            peak_lag=0,
        )
    best_stat = 0.0
    best_lag = 0
    max_lag = min(tester.max_lag, n - 2)
    for lag in range(1, max_lag + 1):
        ac = float(np.dot(centered[:-lag], centered[lag:]) / denominator)
        # Normalized: under the null, ac ~ N(0, 1/n).
        stat = abs(ac) * np.sqrt(n)
        if stat > best_stat:
            best_stat = stat
            best_lag = lag
    return VisibilityResult(
        statistic=best_stat,
        threshold=tester.threshold_sigmas,
        watermark_suspected=best_stat >= tester.threshold_sigmas,
        peak_lag=best_lag,
    )
