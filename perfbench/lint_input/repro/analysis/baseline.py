"""Baseline files: adopt a tree's current findings, fail only on new ones.

A baseline is the adoption path for turning a strict rule on over an
existing tree: ``repro lint --write-baseline lint-baseline.json``
records every current finding's fingerprint, and subsequent runs with
``--baseline lint-baseline.json`` report only findings **not** in the
baseline.  Fingerprints come from :func:`repro.analysis.sarif.fingerprint`
— path, code, and message, but not line — so unrelated edits above a
baselined finding do not resurrect it.

The file is sorted JSON, so regenerating it over an unchanged tree is a
no-op diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.sarif import fingerprint

_FORMAT = "repro-lint-baseline/v1"


def write_baseline(path: Path, diagnostics: list[Diagnostic]) -> int:
    """Record the given findings as accepted; returns how many."""
    entries = sorted(
        {
            fingerprint(diagnostic): {
                "code": diagnostic.code,
                "path": diagnostic.path,
                "message": diagnostic.message,
            }
            for diagnostic in diagnostics
        }.items()
    )
    payload = {
        "format": _FORMAT,
        "findings": dict(entries),
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return len(entries)


def load_baseline(path: Path) -> frozenset[str]:
    """The accepted fingerprints of a baseline file.

    Raises:
        ValueError: When the file is not a recognised baseline.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _FORMAT
        or not isinstance(payload.get("findings"), dict)
    ):
        raise ValueError(f"not a repro-lint baseline file: {path}")
    return frozenset(payload["findings"])


def filter_baselined(
    diagnostics: list[Diagnostic], accepted: frozenset[str]
) -> tuple[list[Diagnostic], int]:
    """Split findings into (new, number-baselined)."""
    fresh = [
        diagnostic
        for diagnostic in diagnostics
        if fingerprint(diagnostic) not in accepted
    ]
    return fresh, len(diagnostics) - len(fresh)
