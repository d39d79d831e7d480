"""SARIF 2.1.0 output for the linter.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format GitHub code scanning ingests; emitting it from
``repro lint --sarif`` puts the legality prover's findings in the same
pull-request annotation pipeline as any commercial analyzer.

The writer is hand-rolled (the repo takes no dependencies) and targets
the subset of the schema code scanning consumes: one ``run`` with a
``tool.driver`` carrying the rule catalog, and one ``result`` per
diagnostic with a physical location, the rule id, and a stable
``partialFingerprints`` entry so baseline matching survives line drift
when unrelated code moves.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.pylint_rules.base import LintRule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {
    Severity.NOTE: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def fingerprint(diagnostic: Diagnostic) -> str:
    """A stable identity for one finding, independent of line numbers.

    Hashes the path, code, and message — not the line — so pure line
    drift (an unrelated edit above the finding) keeps the identity, and
    the same is used by the baseline file.
    """
    payload = "\x1f".join(
        (
            diagnostic.path or "",
            diagnostic.code,
            diagnostic.message,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _result(diagnostic: Diagnostic) -> dict[str, object]:
    region: dict[str, object] = {
        "startLine": diagnostic.line or 1,
    }
    if diagnostic.col:
        region["startColumn"] = diagnostic.col
    message = diagnostic.message
    if diagnostic.fix_it:
        message = f"{message}\nfix: {diagnostic.fix_it}"
    return {
        "ruleId": diagnostic.code,
        "level": _LEVELS[diagnostic.severity],
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": (diagnostic.path or "<unknown>").replace(
                            "\\", "/"
                        ),
                    },
                    "region": region,
                }
            }
        ],
        "partialFingerprints": {
            "reproLint/v1": fingerprint(diagnostic),
        },
    }


def _rule_descriptor(rule: LintRule) -> dict[str, object]:
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.description or rule.name},
    }


def to_sarif(
    diagnostics: list[Diagnostic],
    rules: tuple[LintRule, ...],
) -> dict[str, object]:
    """The SARIF log object for one lint run."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": [
                            _rule_descriptor(rule) for rule in rules
                        ],
                    }
                },
                "results": [
                    _result(diagnostic) for diagnostic in diagnostics
                ],
            }
        ],
    }


def write_sarif(
    path: Path,
    diagnostics: list[Diagnostic],
    rules: tuple[LintRule, ...],
) -> None:
    """Serialize one run to a SARIF file (sorted keys, trailing newline)."""
    log = to_sarif(diagnostics, rules)
    path.write_text(
        json.dumps(log, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
