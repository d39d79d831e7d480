"""Shared vectorized signal kernels for the Section IV detectors.

Every detection technique in :mod:`repro.techniques` reduces to the same
few primitives: sweep a grid of candidate delay offsets, bin packet
arrival times into fixed windows at each offset, and correlate the binned
rate series against a template (a PN code, a reference flow, the series
itself at a lag).  The scalar implementations did this one offset at a
time — O(offsets x packets) of Python-level re-binning per detection.
This package hoists the whole sweep into NumPy:

* :func:`offset_grid` — the canonical delay-offset grid, bit-identical
  to the legacy ``while offset <= max_offset`` accumulation, with the
  parameter validation the scalar loops lacked;
* :func:`binned_count_matrix` — binned counts for *all* offsets at once
  (one sort + one ``np.searchsorted`` over a 2-D edge grid), chunked so
  the edge matrix respects a configurable memory bound;
* :func:`batched_code_correlation` / :func:`batched_pearson` — the DSSS
  despread and the sliding-offset Pearson, batched over the offset axis;
* :func:`autocorrelation_spectrum` — every lag of the visibility test's
  autocorrelation scan in one FFT;
* :func:`fold_half_counts` — the square-wave detector's modulo-period
  fold for all offsets at once;
* :func:`grouped_median` — per-group medians (the timing attack's
  per-neighbour response-time medians) without a Python grouping loop.

The scalar originals survive as ``_reference_*`` functions next to each
technique; the differential and hypothesis suites hold the two
implementations together within 1e-9.
"""

from repro.signal.autocorr import autocorrelation_spectrum
from repro.signal.binning import (
    DEFAULT_CHUNK_BYTES,
    bin_edges_grid,
    binned_count_matrix,
)
from repro.signal.correlate import batched_code_correlation, batched_pearson
from repro.signal.folding import fold_half_counts
from repro.signal.grid import offset_grid
from repro.signal.grouping import grouped_median, intern_labels

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "autocorrelation_spectrum",
    "batched_code_correlation",
    "batched_pearson",
    "bin_edges_grid",
    "binned_count_matrix",
    "fold_half_counts",
    "grouped_median",
    "intern_labels",
    "offset_grid",
]
