"""Binned arrival counts for every trial offset in one shot.

The scalar detectors re-ran ``np.histogram`` once per offset — each call
re-scanning every packet against a freshly built edge array.  Here the
timestamps are sorted *once* and a single ``np.searchsorted`` locates
every edge of every offset's bin grid, so the per-offset cost collapses
to ``O(bins * log packets)``.

Semantics are bit-identical to ``np.histogram(times, bins=edges)`` with
uniform explicit edges: bins are left-closed/right-open except the last,
which is closed on both sides.  Bit-identity matters because the counts
are the integers everything downstream correlates — a single off-by-one
at a bin boundary would dwarf the 1e-9 equivalence tolerance.

The edge grid is ``offsets x (bins + 1)`` floats; for a dense sweep over
a long code that matrix is the kernel's memory bound, so it is built in
offset chunks capped at :data:`DEFAULT_CHUNK_BYTES` (see
``docs/performance.md`` for the sizing math).
"""

from __future__ import annotations

import numpy as np

#: Cap on the transient edge/count matrices, in bytes.  16 MiB keeps the
#: working set inside L2/L3 on commodity hardware; sweeps wider than the
#: cap are processed in offset chunks with identical results.
DEFAULT_CHUNK_BYTES = 16 * 1024 * 1024


def bin_edges_grid(
    start: float,
    offsets: np.ndarray,
    n_bins: int,
    width: float,
) -> np.ndarray:
    """Bin edges for every offset: ``(start + offset) + k * width``.

    Float operations mirror the scalar detectors exactly — first the
    offset shift, then the edge multiples — so row ``i`` equals the edge
    array the scalar path built for ``offsets[i]`` bit-for-bit.

    Args:
        start: Sweep origin (embedding start time).
        offsets: 1-D trial offsets.
        n_bins: Bins per offset row.
        width: Bin width in seconds.

    Returns:
        A ``(len(offsets), n_bins + 1)`` float array of edges.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1: {n_bins}")
    if width <= 0:
        raise ValueError(f"bin width must be positive: {width}")
    origins = np.asarray(offsets, dtype=float) + start
    return origins[:, None] + np.arange(n_bins + 1) * width


def binned_count_matrix(
    timestamps,
    start: float,
    offsets: np.ndarray,
    n_bins: int,
    width: float,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> np.ndarray:
    """Counts of ``timestamps`` in every offset's bin grid.

    Args:
        timestamps: Arrival times (any order; sorted internally once).
        start: Sweep origin.
        offsets: 1-D trial offsets (see
            :func:`~repro.signal.grid.offset_grid`).
        n_bins: Bins per offset.
        width: Bin width in seconds.
        chunk_bytes: Bound on the transient edge matrix; offsets are
            processed in chunks no larger than this.

    Returns:
        A ``(len(offsets), n_bins)`` float array; row ``i`` equals
        ``np.histogram(timestamps, bins=edges_of(offsets[i]))[0]``.
    """
    offsets = np.asarray(offsets, dtype=float)
    times = np.sort(np.asarray(timestamps, dtype=float))
    n_offsets = offsets.size
    counts = np.empty((n_offsets, n_bins), dtype=float)
    if n_offsets == 0:
        return counts
    row_bytes = (n_bins + 1) * 8
    rows_per_chunk = max(1, int(chunk_bytes // row_bytes))
    for lo in range(0, n_offsets, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_offsets)
        edges = bin_edges_grid(start, offsets[lo:hi], n_bins, width)
        positions = np.searchsorted(times, edges, side="left")
        chunk = np.diff(positions, axis=1).astype(float)
        # np.histogram's final bin is closed: arrivals exactly on the last
        # edge belong to it.
        last_closed = np.searchsorted(times, edges[:, -1], side="right")
        chunk[:, -1] += last_closed - positions[:, -1]
        counts[lo:hi] = chunk
    return counts
