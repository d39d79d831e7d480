"""The ruling server's newline-delimited-JSON wire format.

One request or response per line, UTF-8, compact sorted-key JSON — the
same canonical form :mod:`repro.ledger.serialize` uses for persisted
rulings, so the bytes a client receives for a ruling are exactly the
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

The action codec below is the inverse problem of the ledger's ruling
codec: every field of every frozen dataclass, enums by stable ``name``,
so a decoded action compares equal to — and fingerprints identically
to — the one the client held.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)
from repro.ledger.serialize import canonical_json

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


def action_to_dict(action: InvestigativeAction) -> dict:
    """The complete JSON-serializable encoding of an action."""
    context = action.context
    return {
        "description": action.description,
        "actor": action.actor.name,
        "data_kind": action.data_kind.name,
        "timing": action.timing.name,
        "context": {
            "place": context.place.name,
            "encrypted": context.encrypted,
            "knowingly_exposed": context.knowingly_exposed,
            "shared_with_others": context.shared_with_others,
            "delivered_to_recipient": context.delivered_to_recipient,
            "provider_serves_public": context.provider_serves_public,
            "provider_role": (
                None
                if context.provider_role is None
                else context.provider_role.name
            ),
            "policy_eliminates_rep": context.policy_eliminates_rep,
            "home_interior": context.home_interior,
            "technology_in_general_public_use": (
                context.technology_in_general_public_use
            ),
            "abandoned": context.abandoned,
        },
        "consent": {
            "scope": action.consent.scope.name,
            "voluntary": action.consent.voluntary,
            "exceeds_authority": action.consent.exceeds_authority,
            "revoked": action.consent.revoked,
            "covers_target_data": action.consent.covers_target_data,
        },
        "doctrine": {
            "exigent_circumstances": action.doctrine.exigent_circumstances,
            "plain_view": action.doctrine.plain_view,
            "target_on_probation": action.doctrine.target_on_probation,
            "emergency_pen_trap": action.doctrine.emergency_pen_trap,
            "hash_search_of_lawful_media": (
                action.doctrine.hash_search_of_lawful_media
            ),
            "mining_of_lawful_data": action.doctrine.mining_of_lawful_data,
            "credentials_lawfully_obtained": (
                action.doctrine.credentials_lawfully_obtained
            ),
            "monitoring_own_network": action.doctrine.monitoring_own_network,
            "victim_invited_monitoring": (
                action.doctrine.victim_invited_monitoring
            ),
        },
    }


def action_from_dict(payload: dict) -> InvestigativeAction:
    """Rebuild an action that compares equal to (and fingerprints
    identically to) the encoded one.

    Raises:
        ProtocolError: On missing fields or unknown enum names.
    """
    try:
        context = payload["context"]
        consent = payload["consent"]
        doctrine = payload["doctrine"]
        provider_role = context["provider_role"]
        return InvestigativeAction(
            description=str(payload["description"]),
            actor=Actor[payload["actor"]],
            data_kind=DataKind[payload["data_kind"]],
            timing=Timing[payload["timing"]],
            context=EnvironmentContext(
                place=Place[context["place"]],
                encrypted=bool(context["encrypted"]),
                knowingly_exposed=bool(context["knowingly_exposed"]),
                shared_with_others=bool(context["shared_with_others"]),
                delivered_to_recipient=bool(
                    context["delivered_to_recipient"]
                ),
                provider_serves_public=(
                    None
                    if context["provider_serves_public"] is None
                    else bool(context["provider_serves_public"])
                ),
                provider_role=(
                    None
                    if provider_role is None
                    else ProviderRole[provider_role]
                ),
                policy_eliminates_rep=bool(context["policy_eliminates_rep"]),
                home_interior=bool(context["home_interior"]),
                technology_in_general_public_use=bool(
                    context["technology_in_general_public_use"]
                ),
                abandoned=bool(context["abandoned"]),
            ),
            consent=ConsentFacts(
                scope=ConsentScope[consent["scope"]],
                voluntary=bool(consent["voluntary"]),
                exceeds_authority=bool(consent["exceeds_authority"]),
                revoked=bool(consent["revoked"]),
                covers_target_data=bool(consent["covers_target_data"]),
            ),
            doctrine=DoctrineFacts(
                exigent_circumstances=bool(
                    doctrine["exigent_circumstances"]
                ),
                plain_view=bool(doctrine["plain_view"]),
                target_on_probation=bool(doctrine["target_on_probation"]),
                emergency_pen_trap=bool(doctrine["emergency_pen_trap"]),
                hash_search_of_lawful_media=bool(
                    doctrine["hash_search_of_lawful_media"]
                ),
                mining_of_lawful_data=bool(
                    doctrine["mining_of_lawful_data"]
                ),
                credentials_lawfully_obtained=bool(
                    doctrine["credentials_lawfully_obtained"]
                ),
                monitoring_own_network=bool(
                    doctrine["monitoring_own_network"]
                ),
                victim_invited_monitoring=bool(
                    doctrine["victim_invited_monitoring"]
                ),
            ),
        )
    except (KeyError, TypeError) as exc:
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
