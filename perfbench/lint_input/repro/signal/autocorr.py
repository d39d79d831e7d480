"""FFT-based autocorrelation for the adversary's visibility scan.

The scalar :class:`~repro.techniques.visibility.AutocorrelationVisibilityTest`
looped ``for lag in range(1, max_lag + 1)`` computing one overlap dot
product per lag — O(max_lag x n).  The Wiener–Khinchin route computes
every lag at once from one real FFT — O(n log n) — which is the whole
scan for any ``max_lag``.

The spectrum is normalized by the *directly computed* zero-lag energy
``dot(centered, centered)`` rather than the FFT's own zeroth coefficient,
so the only divergence from the scalar path is the FFT's rounding in the
numerator (~1e-13 relative), comfortably inside the 1e-9 equivalence
tolerance the differential suite enforces.
"""

from __future__ import annotations

import numpy as np


def autocorrelation_spectrum(series, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation at lags ``1..max_lag``.

    Args:
        series: The rate series (binned counts); centred internally.
        max_lag: Largest lag computed; clamped to ``len(series) - 2`` by
            callers, not here.

    Returns:
        A 1-D array of length ``max_lag``: entry ``k`` is
        ``dot(c[:-lag], c[lag:]) / dot(c, c)`` for ``lag = k + 1``,
        or all zeros when the series is constant or shorter than 2.

    Raises:
        ValueError: If ``max_lag < 1``.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1: {max_lag}")
    values = np.asarray(series, dtype=float)
    n = values.size
    if n < 2:
        return np.zeros(max_lag, dtype=float)
    centered = values - values.mean()
    denominator = float(np.dot(centered, centered))
    if denominator == 0:
        return np.zeros(max_lag, dtype=float)
    # Zero-pad to at least 2n to make the circular correlation linear.
    size = 1 << int(2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    autocovariance = np.fft.irfft(spectrum * np.conj(spectrum), size)
    usable = min(max_lag, n - 1)
    result = np.zeros(max_lag, dtype=float)
    result[:usable] = autocovariance[1 : usable + 1] / denominator
    return result
