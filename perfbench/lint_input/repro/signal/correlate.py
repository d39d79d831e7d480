"""Batched correlation kernels over the offset axis.

Two flavours, matching the two scalar detectors they replace:

* :func:`batched_code_correlation` — the DSSS despread: centre each
  offset's count row and correlate against the raw ±1 chip sequence
  (the code is *not* centred; an m-sequence is already balanced to ±1);
* :func:`batched_pearson` — the passive flow correlator: full Pearson of
  each candidate row against one fixed reference series, both centred.

Both return 0.0 for degenerate (constant) rows, exactly as the scalar
:func:`repro.techniques.flow_correlation.pearson` does.
"""

from __future__ import annotations

import numpy as np


def batched_code_correlation(
    count_matrix: np.ndarray, chips: np.ndarray
) -> np.ndarray:
    """Normalized correlation of every count row with a spreading code.

    Mirrors ``WatermarkDetector.correlate`` row-wise: counts are centred,
    the code is used raw, and the normalization is the product of the two
    Euclidean norms.

    Args:
        count_matrix: ``(offsets, chips)`` binned counts.
        chips: The ±1 spreading code, length equal to ``count_matrix``'s
            second axis.

    Returns:
        A 1-D array of correlations, one per offset row; 0.0 where the
        row is constant.
    """
    counts = np.asarray(count_matrix, dtype=float)
    chips = np.asarray(chips, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != chips.size:
        raise ValueError(
            f"count matrix {counts.shape} does not match code length "
            f"{chips.size}"
        )
    centered = counts - counts.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered)) * np.sqrt(
        np.dot(chips, chips)
    )
    dots = centered @ chips
    correlations = np.zeros(counts.shape[0], dtype=float)
    nonzero = norms != 0
    correlations[nonzero] = dots[nonzero] / norms[nonzero]
    return correlations


def batched_pearson(
    candidate_matrix: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Pearson correlation of every candidate row against one reference.

    Mirrors :func:`repro.techniques.flow_correlation.pearson` row-wise:
    both sides centred, 0.0 whenever either side is constant.

    Args:
        candidate_matrix: ``(offsets, bins)`` binned candidate counts.
        reference: The reference count series, length equal to
            ``candidate_matrix``'s second axis.

    Returns:
        A 1-D array of Pearson correlations, one per offset row.
    """
    candidates = np.asarray(candidate_matrix, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if candidates.ndim != 2 or candidates.shape[1] != reference.size:
        raise ValueError(
            f"candidate matrix {candidates.shape} does not match reference "
            f"length {reference.size}"
        )
    ref_centered = reference - reference.mean()
    ref_norm = float(np.linalg.norm(ref_centered))
    centered = candidates - candidates.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered)) * ref_norm
    dots = centered @ ref_centered
    correlations = np.zeros(candidates.shape[0], dtype=float)
    nonzero = norms != 0
    correlations[nonzero] = dots[nonzero] / norms[nonzero]
    return correlations
