"""Baseline flow-correlation attack (the comparator for section IV.B).

The passive alternative to the DSSS watermark: bin the server-side and
candidate client-side packet streams into windows and compute the Pearson
correlation of their counts over a delay search.  With smooth (Poisson)
traffic there is little natural rate structure to correlate, and with
bursty cross-traffic unrelated flows correlate spuriously — which is
exactly why the paper calls the active watermark "more effective than
other methods".
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.signal import batched_pearson, binned_count_matrix, offset_grid
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class CorrelationResult:
    """Outcome of correlating one candidate against the reference flow.

    Attributes:
        correlation: Best Pearson correlation over the offset search.
        best_offset: The delay offset that maximized correlation.
        n_reference: Reference arrivals observed.
        n_candidate: Candidate arrivals observed.
        confidence: Sample-support score in [0, 1]: 0 when either series
            is empty, otherwise the thinner series' mean packets-per-
            window capped at 1 — degraded taps lower confidence rather
            than raising.
    """

    correlation: float
    best_offset: float
    n_reference: int
    n_candidate: int
    confidence: float = 1.0


def binned_counts(
    timestamps: list[float], start: float, duration: float, window: float
) -> np.ndarray:
    """Bin timestamps into fixed windows over ``[start, start+duration)``."""
    if window <= 0:
        raise ValueError("window must be positive")
    n_bins = max(1, int(round(duration / window)))
    edges = start + np.arange(n_bins + 1) * window
    counts, _ = np.histogram(np.asarray(timestamps), bins=edges)
    return counts.astype(float)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation, 0.0 when either series is constant."""
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    a_centered = a - a.mean()
    b_centered = b - b.mean()
    norm = np.linalg.norm(a_centered) * np.linalg.norm(b_centered)
    if norm == 0:
        return 0.0
    return float(np.dot(a_centered, b_centered) / norm)


class PacketCountingCorrelator(Technique):
    """Passive packet-count correlation between two observation points.

    Args:
        window: Counting window in seconds.
        max_offset: Largest network delay searched.
        offset_step: Offset search granularity.
        threshold: Correlation needed to declare a match.
    """

    name = "passive packet-count flow correlation"

    def __init__(
        self,
        window: float = 0.5,
        max_offset: float = 1.0,
        offset_step: float = 0.05,
        threshold: float = 0.5,
    ) -> None:
        if window <= 0 or offset_step <= 0:
            raise ValueError("window and offset_step must be positive")
        if max_offset < 0:
            raise ValueError(f"max_offset must be non-negative: {max_offset}")
        self.window = window
        self.max_offset = max_offset
        self.offset_step = offset_step
        self.threshold = threshold

    def correlate(
        self,
        reference_times: list[float],
        candidate_times: list[float],
        start: float,
        duration: float,
    ) -> CorrelationResult:
        """Correlate a candidate's arrivals against the reference flow.

        The reference series is binned once from ``start``; the candidate
        series is binned at every trial offset in one pass through the
        vectorized :func:`repro.signal.binned_count_matrix` kernel, and
        :func:`repro.signal.batched_pearson` scores the whole offset axis
        at once (first maximum wins, as in the scalar sweep — kept as
        :func:`_reference_correlate`).  An empty series on either side
        returns a zero-correlation, zero-confidence result instead of
        raising.
        """
        reference = binned_counts(reference_times, start, duration, self.window)
        n_bins = reference.size
        if not reference_times or not candidate_times:
            return CorrelationResult(
                correlation=0.0,
                best_offset=0.0,
                n_reference=len(reference_times),
                n_candidate=len(candidate_times),
                confidence=0.0,
            )
        offsets = offset_grid(self.max_offset, self.offset_step)
        candidates = binned_count_matrix(
            candidate_times, start, offsets, n_bins, self.window
        )
        correlations = batched_pearson(candidates, reference)
        best_index = int(np.argmax(correlations))
        best_corr = float(correlations[best_index])
        best_offset = float(offsets[best_index])
        support = min(len(reference_times), len(candidate_times)) / n_bins
        return CorrelationResult(
            correlation=best_corr,
            best_offset=best_offset,
            n_reference=len(reference_times),
            n_candidate=len(candidate_times),
            confidence=min(1.0, support),
        )

    def matches(self, result: CorrelationResult) -> bool:
        """Whether the correlation clears the decision threshold."""
        return result.correlation >= self.threshold

    def required_actions(self) -> list[InvestigativeAction]:
        observe_server = InvestigativeAction(
            description="record packet timing at the server-side tap",
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        )
        observe_client = InvestigativeAction(
            description="record packet timing at the suspect's ISP",
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.NON_CONTENT,
            timing=Timing.REAL_TIME,
            context=EnvironmentContext(place=Place.TRANSMISSION_PATH),
        )
        return [observe_server, observe_client]


def _reference_correlate(
    correlator: PacketCountingCorrelator,
    reference_times: list[float],
    candidate_times: list[float],
    start: float,
    duration: float,
) -> CorrelationResult:
    """The original scalar offset sweep, kept for differential tests.

    One fresh histogram and one Pearson call per trial offset; production
    correlation batches the whole offset axis through the vectorized
    kernels.
    """
    reference = binned_counts(
        reference_times, start, duration, correlator.window
    )
    n_bins = reference.size
    if not reference_times or not candidate_times:
        return CorrelationResult(
            correlation=0.0,
            best_offset=0.0,
            n_reference=len(reference_times),
            n_candidate=len(candidate_times),
            confidence=0.0,
        )
    best_corr = float("-inf")
    best_offset = 0.0
    offset = 0.0
    while offset <= correlator.max_offset:
        candidate = binned_counts(
            candidate_times, start + offset, duration, correlator.window
        )
        corr = pearson(reference, candidate)
        if corr > best_corr:
            best_corr = corr
            best_offset = offset
        offset += correlator.offset_step
    support = min(len(reference_times), len(candidate_times)) / n_bins
    return CorrelationResult(
        correlation=best_corr,
        best_offset=best_offset,
        n_reference=len(reference_times),
        n_candidate=len(candidate_times),
        confidence=min(1.0, support),
    )
