"""Trace serialisation: JSONL lines and Chrome trace-event JSON.

JSONL is the archival format (one :meth:`SpanRecord.to_dict` per line,
append-friendly, greppable); the Chrome trace-event format is for flame
views — load the file at ``chrome://tracing`` or https://ui.perfetto.dev.
Spans become complete (``ph: "X"``) events; zero-duration records become
instants (``ph: "i"``).  Timestamps are microseconds as the format
requires, rebased so the first record starts at 0.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from repro.obs.tracing import SpanRecord


def to_jsonl(records: Sequence[SpanRecord]) -> str:
    """One JSON object per line, in finish order; '' for no records."""
    if not records:
        return ""
    return "\n".join(
        json.dumps(record.to_dict(), sort_keys=True) for record in records
    ) + "\n"


def to_chrome_trace(records: Sequence[SpanRecord]) -> str:
    """The records as a Chrome trace-event JSON document."""
    base = min((record.t0 for record in records), default=0.0)
    events: list[dict[str, object]] = []
    for record in records:
        args: dict[str, object] = dict(record.attrs)
        if record.sim_time is not None:
            args["sim_time"] = record.sim_time
        if record.audit:
            args["audit"] = record.audit
        event: dict[str, object] = {
            "name": record.name,
            "pid": 1,
            "tid": 1,
            "ts": (record.t0 - base) * 1e6,
            "args": args,
        }
        if record.t1 > record.t0:
            event["ph"] = "X"
            event["dur"] = record.duration * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return json.dumps({"traceEvents": events}, sort_keys=True)


def write_trace(path: str, records: Sequence[SpanRecord], chrome: bool = False) -> None:
    """Write records to ``path`` as JSONL (default) or Chrome trace JSON."""
    payload = to_chrome_trace(records) if chrome else to_jsonl(records)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
