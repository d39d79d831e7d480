"""Audit correlation: from spans back to the legal process behind them.

The paper's accountability argument is that every acquisition must be
traceable to the instrument that authorized it.  The tracing layer
makes that mechanical: the investigation pipeline pushes an *audit
frame* (docket entry, instrument id, instrument kind) around each
acquisition, every span finished inside the frame carries those fields
in ``SpanRecord.audit``, and this module answers the resulting query —
"show every acquisition span and the instrument that authorized it".
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs.tracing import SpanRecord

#: Span name the pipeline uses for the evidence-acquisition step.
ACQUISITION_SPAN = "pipeline.acquisition"


def acquisition_spans(records: Sequence[SpanRecord]) -> list[SpanRecord]:
    """All acquisition spans, in finish order."""
    return [record for record in records if record.name == ACQUISITION_SPAN]


def unauthorized_acquisitions(
    records: Sequence[SpanRecord],
) -> list[SpanRecord]:
    """Acquisition spans of process-gated steps missing an instrument id.

    A span is *gated* when the ruling said legal process was required
    (``attrs["needs_process"]`` is true); a gated span without an
    ``instrument_id`` in its audit frame is an accountability hole.
    """
    return [
        record
        for record in acquisition_spans(records)
        if record.attrs.get("needs_process")
        and record.audit.get("instrument_id") is None
    ]


def render_audit_report(records: Sequence[SpanRecord]) -> str:
    """Human-readable acquisition/authorization correlation table."""
    lines = ["acquisition spans and their authorizing instruments:"]
    spans = acquisition_spans(records)
    if not spans:
        lines.append("  (no acquisition spans in trace)")
        return "\n".join(lines)
    for record in spans:
        scene = record.attrs.get("scene", "?")
        evidence = record.attrs.get("evidence_id")
        evidence_part = (
            f"evidence #{evidence}" if evidence is not None else "no evidence"
        )
        instrument_id = record.audit.get("instrument_id")
        if instrument_id is not None:
            kind = record.audit.get("instrument_kind", "process")
            docket = record.audit.get("docket_id")
            docket_part = f", docket #{docket}" if docket is not None else ""
            authority = (
                f"authorized by {kind} (instrument #{instrument_id}"
                f"{docket_part})"
            )
        elif record.attrs.get("needs_process"):
            authority = "UNAUTHORIZED: process required but no instrument"
        else:
            authority = "no process required"
        lines.append(f"  scene {scene}: {evidence_part} — {authority}")
    holes = unauthorized_acquisitions(records)
    lines.append(
        f"{len(spans)} acquisition span(s), "
        f"{len(holes)} unauthorized"
    )
    return "\n".join(lines)
