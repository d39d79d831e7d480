"""The ruling server's newline-delimited-JSON wire format.

One request or response per line, UTF-8, compact sorted-key JSON
(:func:`~repro.core.schema.canonical_json`, the form the ledger stores
rulings in), so the bytes a client receives for a ruling are exactly the
bytes ``canonical_json(ruling_to_dict(ruling))`` produces in-process.
That is what makes the serve-bench differential gate a *byte* equality
check rather than a tolerance.

Requests (the ``op`` field selects the verb):

* ``{"op": "rule", "id": 7, "actions": [...]}`` — rule on a batch;
  answered by ``{"id": 7, "ok": true, "rulings": [...]}`` with rulings
  in action order.
* ``{"op": "ping"}`` — liveness; answered by ``{"ok": true, "pong": true}``.
* ``{"op": "stats"}`` — shard/cache counters as JSON.

Errors (malformed JSON, unknown op, bad action, shed load) answer
``{"id": ..., "ok": false, "error": "..."}``; a shed response also
carries ``"shed": true`` so clients can distinguish overload from a bad
request.  The connection survives request-level errors; only framing
violations (oversized or non-UTF-8 lines) close it.

The action codec is derived from the :class:`InvestigativeAction`
dataclasses by :mod:`repro.core.schema`, so a decoded action compares
equal to (and fingerprints identically to) the one the client held.
Decoding treats every client as hostile: a value the encoder could not
have produced (``"false"`` for a boolean, an unknown key or enum name,
a missing key) is a :class:`ProtocolError`, never a coerced fact.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.action import InvestigativeAction
from repro.core.schema import SchemaError, canonical_json, decoder, encoder

#: Framing bound: one request line must fit a full batch of actions.
#: Encoded actions run ~800 bytes each, so 4 MiB comfortably holds the
#: ``MAX_BATCH_ACTIONS`` cap with headroom.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Client-side framing bound for *response* lines.  Responses carry
#: complete rulings (requirements, exceptions, reasoning steps — several
#: KiB each), so a full 4,096-action batch answer runs to tens of MiB.
MAX_RESPONSE_LINE_BYTES = 64 * 1024 * 1024

#: Server-side cap on actions per ``rule`` request.
MAX_BATCH_ACTIONS = 4096


class ProtocolError(ValueError):
    """A request the server can answer with an error response."""


# -- action codec ----------------------------------------------------------------

action_to_dict = encoder(InvestigativeAction)
_decode_action = decoder(InvestigativeAction)


def action_from_dict(payload: Any) -> InvestigativeAction:
    """Rebuild an action that compares equal to (and fingerprints
    identically to) the encoded one.

    Raises:
        ProtocolError: On anything :func:`action_to_dict` could not have
            produced: a missing or unknown key, a value of the wrong JSON
            type (``"false"`` is not a boolean), or an unknown enum name.
    """
    try:
        return _decode_action(payload)
    except SchemaError as exc:
        raise ProtocolError(f"malformed action: {exc}") from exc


# -- framing ---------------------------------------------------------------------


def encode_line(payload: dict) -> bytes:
    """One canonical-JSON message, newline-terminated, UTF-8."""
    return canonical_json(payload).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received line into a message dict.

    Raises:
        ProtocolError: On non-UTF-8 bytes, invalid JSON, or a non-object
            top level.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError("line is not UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload
