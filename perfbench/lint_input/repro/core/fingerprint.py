"""Canonical fingerprints for investigative actions.

The engine is a pure function of a subset of an
:class:`~repro.core.action.InvestigativeAction`'s fields: the ruling never
reads ``description`` (free text for humans), and several other fields are
read only behind guards in the rule modules.  The fingerprint is the
canonical, hashable projection of exactly the facts the ruling depends on,
with the guarded fields normalized to their effective values:

* ``description`` is dropped — no rule module reads it.
* ``context.provider_serves_public`` is normalized ``None -> True``
  (:func:`repro.core.statutes.sca.provider_role_for` treats an unknown
  provider as public), and to ``True`` whenever ``provider_role`` is set
  explicitly (the SCA returns the explicit role before ever consulting it).
* ``context.technology_in_general_public_use`` is normalized to ``False``
  unless ``home_interior`` is set — the Kyllo factor is only consulted for
  acquisitions that reveal the home interior
  (:func:`repro.core.privacy._objective_prong`).
* Consent collapses to ``(effective, scope-if-effective,
  covers_target_data)``: every consult in the rule modules goes through
  :meth:`~repro.core.action.ConsentFacts.effective`, reads ``scope`` only
  after ``effective()`` held, or reads ``covers_target_data`` directly
  (the computer-trespasser paths).

Two actions with equal fingerprints therefore receive byte-identical
rulings — including the full reasoning trace and ``explain()`` output —
which is what makes the fingerprint safe as a memoization key.  The
differential test suite re-proves this over a 10,000-action corpus on
every run.
"""

from __future__ import annotations

import hashlib

from repro.core.action import InvestigativeAction
from repro.core.enums import (
    Actor,
    ConsentScope,
    DataKind,
    Place,
    ProviderRole,
    Timing,
)

#: A fingerprint is a flat tuple of primitives (str/bool/None) — enum
#: members are stored as their ``.value`` so tuple hashing stays entirely
#: in C.  ``Enum.__hash__`` is a Python-level call, and the cache hashes
#: each fingerprint up to three times per miss (get, membership check,
#: insert); with ~5 enum members per 26-field tuple that overhead alone
#: made a cold cached batch slower than the uncached loop.  Fields are
#: positional, so same-valued members of *different* enums cannot collide.
ActionFingerprint = tuple

_FIELD_NAMES = (
    "actor",
    "data_kind",
    "timing",
    "place",
    "encrypted",
    "knowingly_exposed",
    "shared_with_others",
    "delivered_to_recipient",
    "provider_serves_public",
    "provider_role",
    "policy_eliminates_rep",
    "home_interior",
    "technology_in_general_public_use",
    "abandoned",
    "consent_effective",
    "consent_scope",
    "consent_covers_target_data",
    "exigent_circumstances",
    "plain_view",
    "target_on_probation",
    "emergency_pen_trap",
    "hash_search_of_lawful_media",
    "mining_of_lawful_data",
    "credentials_lawfully_obtained",
    "monitoring_own_network",
    "victim_invited_monitoring",
)


def action_fingerprint(action: InvestigativeAction) -> ActionFingerprint:
    """The canonical hashable projection of one action's ruling inputs.

    Args:
        action: The action to fingerprint.

    Returns:
        A flat tuple of the normalized fields the engine's ruling depends
        on.  Equal fingerprints guarantee identical rulings.
    """
    ctx = action.context
    consent = action.consent
    doctrine = action.doctrine
    consent_effective = consent.effective()
    provider_role = ctx.provider_role
    return (
        action.actor._value_,
        action.data_kind._value_,
        action.timing._value_,
        ctx.place._value_,
        ctx.encrypted,
        ctx.knowingly_exposed,
        ctx.shared_with_others,
        ctx.delivered_to_recipient,
        (
            True
            if provider_role is not None
            or ctx.provider_serves_public is None
            else ctx.provider_serves_public
        ),
        provider_role._value_ if provider_role is not None else None,
        ctx.policy_eliminates_rep,
        ctx.home_interior,
        (
            ctx.technology_in_general_public_use
            if ctx.home_interior
            else False
        ),
        ctx.abandoned,
        consent_effective,
        consent.scope._value_ if consent_effective else None,
        consent.covers_target_data,
        doctrine.exigent_circumstances,
        doctrine.plain_view,
        doctrine.target_on_probation,
        doctrine.emergency_pen_trap,
        doctrine.hash_search_of_lawful_media,
        doctrine.mining_of_lawful_data,
        doctrine.credentials_lawfully_obtained,
        doctrine.monitoring_own_network,
        doctrine.victim_invited_monitoring,
    )


#: Enum type per enum-bearing fingerprint field, for rehydrating the
#: stored primitive values in the human-facing views below.
_FIELD_ENUMS = {
    "actor": Actor,
    "data_kind": DataKind,
    "timing": Timing,
    "place": Place,
    "provider_role": ProviderRole,
    "consent_scope": ConsentScope,
}


def fingerprint_digest(fingerprint: ActionFingerprint) -> str:
    """Stable SHA-256 hex digest of a fingerprint.

    Enum-bearing fields render as ``ClassName.MEMBER`` so the digest
    survives process restarts and is safe to persist (tuple ``hash()`` is
    salted per interpreter; this is not) — and is unchanged from when the
    fingerprint tuple carried the enum members themselves.
    """
    rendered = "|".join(
        f"{name}={value!s}"
        for name, value in describe_fingerprint(fingerprint).items()
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def describe_fingerprint(fingerprint: ActionFingerprint) -> dict:
    """Field-name -> value view of a fingerprint, for debugging output.

    Stored enum values are rehydrated to their members, so the view reads
    the same as it did when the tuple carried members directly.
    """
    described = {}
    for name, value in zip(_FIELD_NAMES, fingerprint):
        enum_type = _FIELD_ENUMS.get(name)
        if enum_type is not None and value is not None:
            value = enum_type(value)
        described[name] = value
    return described
