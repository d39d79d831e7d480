"""Vectorized per-group medians for the timing attack.

The OneSwarm assessment computes one response-time median per direct
neighbour; the scalar path built per-neighbour Python lists and called
``statistics.median`` on each.  Here one ``np.lexsort`` orders every
response by (neighbour, time) — group boundaries, counts, and medians
all fall out of that single sorted pass, with no second sort and no
Python loop over records.

Median semantics match :func:`statistics.median` exactly: the middle
element for odd group sizes, the mean of the two middle elements for
even sizes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def intern_labels(labels: Iterable[str]) -> tuple[np.ndarray, list[str]]:
    """Intern string labels to int64 codes in sorted-label rank order.

    Sorting and comparing NumPy string arrays dominates
    :func:`grouped_median` when labels are names (the timing attack's
    known break-even bottleneck); one Python dict pass replaces that
    with integer codes a lexsort handles natively.

    Returns:
        ``(codes, names)``: ``names`` is the sorted unique labels and
        ``codes[i]`` is the index of ``labels[i]`` in ``names`` — so
        ``grouped_median(codes, values)`` yields groups in exactly the
        order the string-label path did, and ``names[int(code)]``
        recovers each group's label.
    """
    first_seen: dict[str, int] = {}
    # setdefault interns in one dict probe per record; the len() default
    # is only *used* on first sight, when it equals the next free code.
    raw = [
        first_seen.setdefault(label, len(first_seen)) for label in labels
    ]
    names = sorted(first_seen)
    remap = np.empty(len(names), dtype=np.int64)
    for rank, name in enumerate(names):
        remap[first_seen[name]] = rank
    if not raw:
        return np.array([], dtype=np.int64), names
    return remap[np.array(raw, dtype=np.int64)], names


def grouped_median(
    labels, values
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Median of ``values`` within each distinct label.

    Args:
        labels: Group label per value (any dtype ``np.unique`` accepts;
            the timing attack passes neighbour name strings).
        values: The values to aggregate, parallel to ``labels``.

    Returns:
        ``(unique_labels, medians, counts)`` with groups in sorted label
        order.  All three are empty arrays when no values are given.

    Raises:
        ValueError: If ``labels`` and ``values`` differ in length.
    """
    labels = np.asarray(labels)
    values = np.asarray(values, dtype=float)
    if labels.shape != values.shape or labels.ndim != 1:
        raise ValueError(
            f"labels {labels.shape} and values {values.shape} must be "
            "equal-length 1-D arrays"
        )
    if labels.size == 0:
        return labels, np.array([], dtype=float), np.array([], dtype=np.int64)
    order = np.lexsort((values, labels))
    sorted_labels = labels[order]
    sorted_values = values[order]
    boundaries = (
        np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    )
    starts = np.concatenate(([0], boundaries))
    counts = np.diff(np.concatenate((starts, [labels.size])))
    unique = sorted_labels[starts]
    upper = starts + counts // 2
    lower = starts + (counts - 1) // 2
    medians = (sorted_values[lower] + sorted_values[upper]) / 2.0
    # Odd-sized groups have lower == upper; (x + x) / 2 == x exactly, so
    # no special case is needed for statistics.median parity.
    return unique, medians, counts.astype(np.int64)
