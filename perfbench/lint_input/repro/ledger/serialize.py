"""Canonical, loss-free serialization for persisted legal records.

:meth:`~repro.core.ruling.Ruling.to_dict` is a human-facing export and
drops detail (per-requirement reasoning, exception steps, authorities);
reloading from it could never reproduce ``explain()`` byte for byte.
This module defines the *complete* encoding the ledger stores instead:
every field of every frozen dataclass, enums by their stable
``name``/``value``, rendered as compact sorted-key JSON so two equal
rulings always serialize to identical bytes and a persisted ruling
decodes to an object that compares equal to — and explains identically
to — the one the engine produced.

Fingerprints are flat tuples of primitives (``str``/``bool``/``None``;
see :mod:`repro.core.fingerprint`), which JSON round-trips exactly, so
they are stored as a JSON array.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.core.enums import ExceptionKind, LegalSource, ProcessKind
from repro.core.fingerprint import ActionFingerprint
from repro.core.ruling import (
    AppliedException,
    PrivacyFinding,
    ReasoningStep,
    Requirement,
    Ruling,
)

if TYPE_CHECKING:  # imported only for annotations; avoids module cycles
    from repro.court.docket import IssuedProcess
    from repro.evidence.custody import CustodyEntry


def _canonical(payload: object) -> str:
    """Compact, sorted-key JSON — the ledger's canonical text form."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


# -- fingerprints ----------------------------------------------------------------


def fingerprint_to_json(fingerprint: ActionFingerprint) -> str:
    """Encode a fingerprint tuple as a JSON array."""
    return _canonical(list(fingerprint))


def fingerprint_from_json(text: str) -> ActionFingerprint:
    """Decode a stored fingerprint back to the tuple the cache keys on."""
    return tuple(json.loads(text))


# -- reasoning steps -------------------------------------------------------------


def _step_to_dict(step: ReasoningStep) -> dict:
    return {
        "source": step.source.name,
        "text": step.text,
        "authorities": list(step.authorities),
    }


def _step_from_dict(payload: dict) -> ReasoningStep:
    return ReasoningStep(
        source=LegalSource[payload["source"]],
        text=payload["text"],
        authorities=tuple(payload["authorities"]),
    )


# -- rulings ---------------------------------------------------------------------


def ruling_to_dict(ruling: Ruling) -> dict:
    """The complete JSON-serializable encoding of a ruling."""
    return {
        "required_process": ruling.required_process.name,
        "requirements": [
            {
                "source": requirement.source.name,
                "process": requirement.process.name,
                "steps": [_step_to_dict(s) for s in requirement.steps],
            }
            for requirement in ruling.requirements
        ],
        "exceptions": [
            {
                "kind": exception.kind.name,
                "eliminates": sorted(
                    source.name for source in exception.eliminates
                ),
                "step": _step_to_dict(exception.step),
            }
            for exception in ruling.exceptions
        ],
        "privacy": {
            "subjective_expectation": ruling.privacy.subjective_expectation,
            "objectively_reasonable": ruling.privacy.objectively_reasonable,
            "steps": [_step_to_dict(s) for s in ruling.privacy.steps],
        },
        "steps": [_step_to_dict(s) for s in ruling.steps],
    }


def ruling_from_dict(payload: dict) -> Ruling:
    """Rebuild a :class:`Ruling` that compares equal to the original."""
    return Ruling(
        required_process=ProcessKind[payload["required_process"]],
        requirements=tuple(
            Requirement(
                source=LegalSource[item["source"]],
                process=ProcessKind[item["process"]],
                steps=tuple(_step_from_dict(s) for s in item["steps"]),
            )
            for item in payload["requirements"]
        ),
        exceptions=tuple(
            AppliedException(
                kind=ExceptionKind[item["kind"]],
                eliminates=frozenset(
                    LegalSource[name] for name in item["eliminates"]
                ),
                step=_step_from_dict(item["step"]),
            )
            for item in payload["exceptions"]
        ),
        privacy=PrivacyFinding(
            subjective_expectation=(
                payload["privacy"]["subjective_expectation"]
            ),
            objectively_reasonable=(
                payload["privacy"]["objectively_reasonable"]
            ),
            steps=tuple(
                _step_from_dict(s) for s in payload["privacy"]["steps"]
            ),
        ),
        steps=tuple(_step_from_dict(s) for s in payload["steps"]),
    )


def ruling_to_json(ruling: Ruling) -> str:
    """Canonical JSON text for a ruling (equal rulings → equal bytes)."""
    return _canonical(ruling_to_dict(ruling))


def ruling_from_json(text: str) -> Ruling:
    """Decode :func:`ruling_to_json` output."""
    return ruling_from_dict(json.loads(text))


# -- instruments and custody -----------------------------------------------------
#
# Process-global ids (``instrument_id``, ``evidence_id``) are
# deliberately excluded from the canonical forms: they are allocated by
# per-process ``itertools.count`` counters and would differ on every
# reload.  Identity in the ledger comes from caller-supplied string
# keys instead.


def instrument_to_dict(instrument: "IssuedProcess") -> dict:
    """Canonical encoding of an issued instrument (id excluded)."""
    return {
        "kind": instrument.kind.name,
        "issued_to": instrument.issued_to,
        "issued_at": instrument.issued_at,
        "expires_at": instrument.expires_at,
        "scope": instrument.scope,
        "revoked": instrument.revoked,
    }


def instrument_from_dict(payload: dict) -> "IssuedProcess":
    """Rebuild an instrument (with a fresh process-local id)."""
    from repro.court.docket import IssuedProcess

    return IssuedProcess(
        kind=ProcessKind[payload["kind"]],
        issued_to=payload["issued_to"],
        issued_at=payload["issued_at"],
        expires_at=payload["expires_at"],
        scope=payload["scope"],
        revoked=payload["revoked"],
    )


def custody_entry_to_dict(entry: "CustodyEntry") -> dict:
    """Canonical encoding of one custody event."""
    return {
        "timestamp": entry.timestamp,
        "custodian": entry.custodian,
        "event": entry.event,
        "content_hash": entry.content_hash,
    }


def custody_entry_from_dict(payload: dict) -> "CustodyEntry":
    """Decode :func:`custody_entry_to_dict` output."""
    from repro.evidence.custody import CustodyEntry

    return CustodyEntry(
        timestamp=payload["timestamp"],
        custodian=payload["custodian"],
        event=payload["event"],
        content_hash=payload["content_hash"],
    )


def canonical_json(payload: object) -> str:
    """Public canonical-JSON renderer (sorted keys, compact)."""
    return _canonical(payload)


def reasoning_text(ruling: Ruling) -> str:
    """The flattened reasoning trace as one searchable document.

    One line per step, rendered exactly as ``explain()`` renders it
    (``(source) text [cites]``), so full-text queries match what a
    human reads in the trace.
    """
    return "\n".join(str(step) for step in ruling.steps)


def citation_keys(ruling: Ruling) -> tuple[str, ...]:
    """Every authority key the ruling's trace cites, sorted and unique."""
    keys: set[str] = set()
    for step in ruling.steps:
        keys.update(step.authorities)
    return tuple(sorted(keys))
