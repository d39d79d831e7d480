"""Canonical, loss-free serialization for persisted legal records.

:meth:`~repro.core.ruling.Ruling.to_dict` is a human-facing export and
drops detail (per-requirement reasoning, exception steps, authorities);
reloading from it could never reproduce ``explain()`` byte for byte.
The ledger stores the *complete* encoding instead: every field of every
frozen dataclass, derived from the dataclass declarations by
:mod:`repro.core.schema` (enums by ``name``, reasoning steps and
requirements nested, exception sources as a sorted name list) and
rendered with :func:`~repro.core.schema.canonical_json`, so two equal
rulings always serialize to identical bytes and a persisted ruling
decodes — strictly, rejecting any malformed document — to an object
that compares equal to, and explains identically to, the one the
engine produced.

Process-global ids (``IssuedProcess.instrument_id``) are marked
:data:`~repro.core.schema.NOT_PERSISTED` on the dataclass: they come
from per-process ``itertools.count`` counters and would differ on every
reload.  Identity in the ledger comes from caller-supplied string keys
instead.

Fingerprints are flat tuples of primitives (``str``/``bool``/``None``;
see :mod:`repro.core.fingerprint`), which JSON round-trips exactly, so
they are stored as a JSON array.
"""

from __future__ import annotations

import json

from repro.core.fingerprint import ActionFingerprint
from repro.core.ruling import Ruling
from repro.core.schema import canonical_json, decoder, encoder
from repro.court.docket import IssuedProcess
from repro.evidence.custody import CustodyEntry

ruling_to_dict = encoder(Ruling)
ruling_from_dict = decoder(Ruling)
instrument_to_dict = encoder(IssuedProcess)
instrument_from_dict = decoder(IssuedProcess)
custody_entry_to_dict = encoder(CustodyEntry)
custody_entry_from_dict = decoder(CustodyEntry)


def fingerprint_to_json(fingerprint: ActionFingerprint) -> str:
    """Encode a fingerprint tuple as a JSON array."""
    return canonical_json(list(fingerprint))


def fingerprint_from_json(text: str) -> ActionFingerprint:
    """Decode a stored fingerprint back to the tuple the cache keys on."""
    return tuple(json.loads(text))


def ruling_to_json(ruling: Ruling) -> str:
    """Canonical JSON text for a ruling (equal rulings → equal bytes)."""
    return canonical_json(ruling_to_dict(ruling))


def ruling_from_json(text: str) -> Ruling:
    """Decode :func:`ruling_to_json` output."""
    return ruling_from_dict(json.loads(text))


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
