"""The square-wave detector's modulo-period fold, batched over offsets.

The interval watermark's statistic needs, per trial offset, the number of
in-window arrivals landing in the first half of their period versus the
total.  The first batched kernel broadcast an ``offsets x packets``
subtraction and re-folded every packet at every offset — O(offsets x
packets) work that benchmarked only ~2x over the scalar sweep.

This version counts instead of folding.  For non-negative shifted time
``u`` the fold condition ``mod(u, period) < period/2`` is exactly
membership in one of the disjoint real intervals ``[k*period,
k*period + period/2)``.  With ``half = period/2`` representable (true
for every normal ``period``), every interval endpoint is an exact real
product ``m * half`` for an integer ``m``.  So the kernel:

1. sorts the arrival times once;
2. forms each endpoint ``m * half`` as a double-double via Dekker's
   two-product and collapses it to a single double threshold ``x`` such
   that ``u < m*half`` (exact reals) iff ``u < x`` (double compare);
3. translates each u-space threshold into the smallest arrival-time
   cutoff ``T`` with ``fl(t - shift) >= x``, by a candidate sum plus a
   short ``nextafter`` refinement (float subtraction is monotone in
   ``t``, so ``{t : fl(t - shift) < x} == {t : t < T}``);
4. reads every count straight out of one ``np.searchsorted``.

Per offset the work drops from O(packets) to O(cycles * log packets),
and every count is bit-identical to the broadcast fold — the boundary
collapse in step 2/3 is exact, not a tolerance.  Degenerate shapes
(subnormal ``period``, astronomical cycle counts, refinement that fails
to converge) fall back to the dense kernel, which is kept as
:func:`_fold_half_counts_dense` with the transient matrix still chunked
at :data:`~repro.signal.binning.DEFAULT_CHUNK_BYTES`.
"""

from __future__ import annotations

import numpy as np

from repro.signal.binning import DEFAULT_CHUNK_BYTES

# Veltkamp splitter for Dekker's exact two-product on doubles: 2**27 + 1.
_SPLITTER = 134217729.0

# Past this many on/off cycles the boundary grid outgrows the packet
# axis and the dense fold is the cheaper (and simpler) kernel.
_MAX_CYCLES = 4_000_000

# nextafter refinement converges in a couple of steps (the candidate
# cutoff is within ~1 ulp of the true one); the cap only guards the
# fallback, it is not expected to bind.
_MAX_REFINE_STEPS = 64


def _fold_half_counts_dense(
    times: np.ndarray,
    start: float,
    offsets: np.ndarray,
    period: float,
    duration: float,
    chunk_bytes: int,
    first_half: np.ndarray,
    total: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The original broadcast fold: shift, mask, ``np.mod``, split.

    Retained as the reference semantics and as the fallback for inputs
    where the boundary-counting fast path declines to run.
    """
    half = period / 2
    n_offsets = offsets.size
    row_bytes = times.size * 8
    rows_per_chunk = max(1, int(chunk_bytes // row_bytes))
    for lo in range(0, n_offsets, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_offsets)
        shifted = times[None, :] - (start + offsets[lo:hi])[:, None]
        in_window = (shifted >= 0) & (shifted < duration)
        phase = np.mod(shifted, period)
        first = in_window & (phase < half)
        first_half[lo:hi] = first.sum(axis=1)
        total[lo:hi] = in_window.sum(axis=1)
    return first_half, total


def _exact_boundary_thresholds(half: float, count: int) -> np.ndarray:
    """Double thresholds ``x[m]`` with ``u < m*half`` (reals) iff ``u < x[m]``.

    ``m*half`` is formed as a double-double ``(hi, err)`` with Dekker's
    two-product (no FMA required); since ``|err| <= ulp(hi)/2``, the
    strict comparison against the exact product collapses to a strict
    double comparison against ``hi`` when ``err <= 0`` and against
    ``nextafter(hi, inf)`` when ``err > 0``.
    """
    m = np.arange(count, dtype=np.float64)
    hi = m * half
    t = _SPLITTER * m
    m_hi = t - (t - m)
    m_lo = m - m_hi
    t = _SPLITTER * half
    h_hi = t - (t - half)
    h_lo = half - h_hi
    err = ((m_hi * h_hi - hi) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo
    return np.where(err > 0, np.nextafter(hi, np.inf), hi)


def _cutoffs(
    thresholds: np.ndarray, shifts: np.ndarray
) -> np.ndarray | None:
    """Smallest ``T`` per (shift, threshold) with ``fl(T - shift) >= x``.

    ``fl(t - shift)`` is nondecreasing in ``t``, so the candidate
    ``fl(x + shift)`` lands within a few ulps of the true cutoff and two
    short masked ``nextafter`` walks pin it exactly.  Returns ``None``
    if either walk fails to converge (never observed; defensive).
    """
    x = thresholds[None, :]
    s = shifts[:, None]
    c = x + s
    for _ in range(_MAX_REFINE_STEPS):
        low = (c - s) < x
        if not low.any():
            break
        c = np.where(low, np.nextafter(c, np.inf), c)
    else:
        return None
    for _ in range(_MAX_REFINE_STEPS):
        prev = np.nextafter(c, -np.inf)
        still = (prev - s) >= x
        if not still.any():
            break
        c = np.where(still, prev, c)
    else:
        return None
    return c


def fold_half_counts(
    timestamps,
    start: float,
    offsets: np.ndarray,
    period: float,
    duration: float,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> tuple[np.ndarray, np.ndarray]:
    """First-half and total in-window counts for every trial offset.

    For each offset, arrivals are shifted by ``start + offset``, kept if
    they land in ``[0, duration)``, folded modulo ``period``, and split
    at the half-period mark — exactly the scalar detector's fold, and
    bit-identical to it for every input.

    Args:
        timestamps: Arrival times (any order).
        start: Embedding start time.
        offsets: 1-D trial offsets.
        period: Full on/off cycle length.
        duration: Total embedding duration.
        chunk_bytes: Bound on the dense fallback's transient matrix.

    Returns:
        ``(first_half, total)`` — two 1-D integer arrays, one entry per
        offset.

    Raises:
        ValueError: If ``period`` or ``duration`` is not positive.
    """
    if period <= 0:
        raise ValueError(f"period must be positive: {period}")
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration}")
    offsets = np.asarray(offsets, dtype=float)
    times = np.asarray(timestamps, dtype=float)
    n_offsets = offsets.size
    first_half = np.zeros(n_offsets, dtype=np.int64)
    total = np.zeros(n_offsets, dtype=np.int64)
    if n_offsets == 0 or times.size == 0:
        return first_half, total

    half = period / 2
    cycles = duration / period
    if (
        half + half != period  # subnormal period: halving rounded
        or not np.isfinite(cycles)
        or cycles > _MAX_CYCLES
        or not np.isfinite(duration)
    ):
        return _fold_half_counts_dense(
            times, start, offsets, period, duration, chunk_bytes, first_half, total
        )

    n_cycles = int(cycles) + 2
    # Endpoints m*half for m in [0, 2*n_cycles): even m open a first
    # half, odd m close it.  The window [0, duration) rides along as two
    # extra exact-double thresholds.
    bounds = _exact_boundary_thresholds(half, 2 * n_cycles)
    lower = bounds[0::2]
    upper = np.minimum(bounds[1::2], duration)
    thresholds = np.concatenate((lower, upper, (0.0, duration)))

    shifts = start + offsets
    cut = _cutoffs(thresholds, shifts)
    if cut is None:
        return _fold_half_counts_dense(
            times, start, offsets, period, duration, chunk_bytes, first_half, total
        )

    times_sorted = np.sort(times)
    counts = np.searchsorted(times_sorted, cut.ravel(), side="left")
    counts = counts.reshape(n_offsets, thresholds.size).astype(np.int64)
    below_lower = counts[:, :n_cycles]
    below_upper = counts[:, n_cycles : 2 * n_cycles]
    below_zero = counts[:, 2 * n_cycles]
    below_duration = counts[:, 2 * n_cycles + 1]
    np.sum(np.maximum(below_upper - below_lower, 0), axis=1, out=first_half)
    np.subtract(below_duration, below_zero, out=total)
    return first_half, total
