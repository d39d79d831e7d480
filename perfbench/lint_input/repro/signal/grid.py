"""The canonical delay-offset grid shared by every offset sweep.

All Section IV detectors search an unknown network delay over
``0, step, 2*step, ... <= max_offset``.  The legacy scalar loops built
that grid by repeated float addition (``offset += offset_step``), which
has two defects this module fixes once, for everyone:

* ``offset_step <= 0`` looped forever (or div-by-zero'd), and a negative
  ``max_offset`` silently scanned *nothing*, returning a bogus
  ``-inf``-correlation result — both now raise a clean ``ValueError``;
* accumulated rounding means the grid is *not* ``k * step``: after
  twenty additions of 0.05 the "1.0" offset is actually
  ``1.0000000000000002`` and falls off the end of the sweep.

The vectorized kernels must agree with the ``_reference_*`` scalars to
1e-9, so :func:`offset_grid` reproduces the accumulation semantics
bit-for-bit (the grid is tiny — the O(offsets x packets) work lives in
the binning kernels, not here) instead of switching to ``np.arange`` and
silently moving every detector's trial offsets.
"""

from __future__ import annotations

import math

import numpy as np

#: Hard cap on grid size, guarding against degenerate ``step`` values
#: (e.g. denormals) that validation lets through but would OOM the sweep.
MAX_GRID_POINTS = 10_000_000


def offset_grid(max_offset: float, offset_step: float) -> np.ndarray:
    """The trial delay offsets ``0, step, step+step, ... <= max_offset``.

    Offsets are produced by sequential float accumulation, matching the
    legacy scalar sweeps exactly (``np.arange``'s ``k * step`` grid
    differs in the last bits and can include one extra point).

    Args:
        max_offset: Largest delay searched; the grid always contains at
            least offset ``0.0``.
        offset_step: Search granularity.

    Returns:
        A 1-D float array of trial offsets, never empty.

    Raises:
        ValueError: If ``offset_step`` is not a positive finite number
            (the legacy loops spun forever on ``<= 0``) or ``max_offset``
            is negative or non-finite (the legacy loops silently scanned
            nothing).
    """
    if not math.isfinite(offset_step) or offset_step <= 0:
        raise ValueError(
            f"offset_step must be a positive finite number: {offset_step}"
        )
    if not math.isfinite(max_offset) or max_offset < 0:
        raise ValueError(
            f"max_offset must be a non-negative finite number: {max_offset}"
        )
    if max_offset / offset_step > MAX_GRID_POINTS:
        raise ValueError(
            f"offset grid of ~{max_offset / offset_step:.3g} points exceeds "
            f"the {MAX_GRID_POINTS} point cap; coarsen offset_step"
        )
    offsets = []
    offset = 0.0
    while offset <= max_offset:
        offsets.append(offset)
        offset += offset_step
    return np.asarray(offsets, dtype=float)
