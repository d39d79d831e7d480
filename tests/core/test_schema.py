"""Derived codecs (repro.core.schema): round trips, strictness, byte pins."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Actor,
    ComplianceEngine,
    ConsentFacts,
    ConsentScope,
    DataKind,
    DoctrineFacts,
    EnvironmentContext,
    InvestigativeAction,
    Place,
    ProcessKind,
    ProviderRole,
    Timing,
)
from repro.core.enums import LegalSource
from repro.core.ruling import ReasoningStep, Ruling
from repro.core.schema import (
    NOT_PERSISTED,
    SchemaError,
    canonical_json,
    decoder,
    encoder,
)
from repro.court.docket import IssuedProcess
from repro.evidence.custody import CustodyEntry
from repro.ledger.serialize import ruling_to_dict
from repro.serve.protocol import action_to_dict
from repro.workloads import action_corpus

_ENGINE = ComplianceEngine()

contexts = st.builds(
    EnvironmentContext,
    place=st.sampled_from(list(Place)),
    encrypted=st.booleans(),
    knowingly_exposed=st.booleans(),
    shared_with_others=st.booleans(),
    delivered_to_recipient=st.booleans(),
    provider_serves_public=st.none() | st.booleans(),
    provider_role=st.none() | st.sampled_from(list(ProviderRole)),
    policy_eliminates_rep=st.booleans(),
    home_interior=st.booleans(),
    technology_in_general_public_use=st.booleans(),
    abandoned=st.booleans(),
)

actions = st.builds(
    InvestigativeAction,
    description=st.text(max_size=30),
    actor=st.sampled_from(list(Actor)),
    data_kind=st.sampled_from(list(DataKind)),
    timing=st.sampled_from(list(Timing)),
    context=contexts,
    consent=st.builds(
        ConsentFacts,
        scope=st.sampled_from(list(ConsentScope)),
        voluntary=st.booleans(),
        exceeds_authority=st.booleans(),
        revoked=st.booleans(),
        covers_target_data=st.booleans(),
    ),
    doctrine=st.builds(
        DoctrineFacts,
        **{
            field.name: st.booleans()
            for field in dataclasses.fields(DoctrineFacts)
        },
    ),
)

finite = st.floats(allow_nan=False, allow_infinity=False)

instruments = st.builds(
    IssuedProcess,
    kind=st.sampled_from(list(ProcessKind)),
    issued_to=st.text(max_size=20),
    issued_at=finite,
    expires_at=finite,
    scope=st.text(max_size=20),
    revoked=st.booleans(),
)

custody_entries = st.builds(
    CustodyEntry,
    timestamp=finite,
    custodian=st.text(max_size=20),
    event=st.text(max_size=20),
    content_hash=st.text(max_size=64),
)


def _through_json(cls: type, value: object) -> object:
    """Encode, render canonically, parse, decode."""
    text = canonical_json(encoder(cls)(value))
    return decoder(cls)(json.loads(text))


class TestRoundTrip:
    @given(actions)
    @settings(max_examples=200, deadline=None)
    def test_actions(self, action):
        assert _through_json(InvestigativeAction, action) == action

    @given(actions)
    @settings(max_examples=100, deadline=None)
    def test_engine_rulings(self, action):
        ruling = _ENGINE.evaluate(action)
        rebuilt = _through_json(Ruling, ruling)
        assert rebuilt == ruling
        assert rebuilt.explain() == ruling.explain()

    @given(instruments)
    @settings(max_examples=100, deadline=None)
    def test_issued_process_without_its_process_local_id(self, instrument):
        encoded = encoder(IssuedProcess)(instrument)
        assert "instrument_id" not in encoded
        rebuilt = _through_json(IssuedProcess, instrument)
        assert rebuilt.instrument_id != instrument.instrument_id
        assert dataclasses.replace(
            rebuilt, instrument_id=instrument.instrument_id
        ) == instrument

    @given(custody_entries)
    @settings(max_examples=100, deadline=None)
    def test_custody_entries(self, entry):
        assert _through_json(CustodyEntry, entry) == entry


class TestByteIdentity:
    """The derived codecs emit exactly the bytes the hand-written field
    lists did (digests taken before the codecs were derived), over the
    golden 5k corpus (``labeled_corpus(5000, seed=99)``'s actions)."""

    ACTIONS_SHA256 = (
        "a16ae974d36f58b5dbe22bbe2435082788615348509004c68039ac5fc74aad57"
    )
    RULINGS_SHA256 = (
        "99c01a79565ff689769f06503130ae433126d1c6535be5a4170ab537e7325fd4"
    )

    @staticmethod
    def _digest(payloads) -> str:
        digest = hashlib.sha256()
        for payload in payloads:
            digest.update(canonical_json(payload).encode("utf-8") + b"\n")
        return digest.hexdigest()

    def test_golden_corpus_actions_and_rulings(self):
        corpus = action_corpus(5000, seed=99)
        rulings = ComplianceEngine().evaluate_many(corpus)
        assert self._digest(map(action_to_dict, corpus)) == self.ACTIONS_SHA256
        assert self._digest(map(ruling_to_dict, rulings)) == self.RULINGS_SHA256

    def test_instrument_and_custody_bytes(self):
        instrument = IssuedProcess(
            ProcessKind.SEARCH_WARRANT, "det", 1.5, 100.0, "scope", True
        )
        assert canonical_json(encoder(IssuedProcess)(instrument)) == (
            '{"expires_at":100.0,"issued_at":1.5,"issued_to":"det",'
            '"kind":"SEARCH_WARRANT","revoked":true,"scope":"scope"}'
        )
        entry = CustodyEntry(1.0, "x", "collected", "ab")
        assert canonical_json(encoder(CustodyEntry)(entry)) == (
            '{"content_hash":"ab","custodian":"x","event":"collected",'
            '"timestamp":1.0}'
        )

    def test_canonical_json_form(self):
        payload = {"b": [1, "é"], "a": {"d": None, "c": True}}
        assert canonical_json(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
        assert canonical_json(payload) == '{"a":{"c":true,"d":null},"b":[1,"é"]}'


class TestDerivation:
    def test_a_new_field_is_carried_with_no_codec_edit(self):
        # A scratch extension of a real domain type: one added field.
        Annotated = dataclasses.make_dataclass(
            "Annotated",
            [("reviewed", bool, dataclasses.field(default=False))],
            bases=(ReasoningStep,),
            frozen=True,
        )
        step = Annotated(LegalSource.SCA, "text", ("a",), reviewed=True)
        encoded = encoder(Annotated)(step)
        assert encoded == {
            "source": "SCA",
            "text": "text",
            "authorities": ["a"],
            "reviewed": True,
        }
        assert decoder(Annotated)(encoded) == step
        with pytest.raises(SchemaError, match="missing key"):
            decoder(Annotated)(encoder(ReasoningStep)(step))
        with pytest.raises(SchemaError, match="reviewed"):
            decoder(Annotated)({**encoded, "reviewed": "true"})

    def test_not_persisted_field_needs_a_default(self):
        @dataclasses.dataclass
        class NoDefault:
            local: int = dataclasses.field(metadata=NOT_PERSISTED)

        with pytest.raises(TypeError, match="default"):
            encoder(NoDefault)

    @pytest.mark.parametrize(
        "annotation", [list, dict, "tuple[int, str]", "int | str"]
    )
    def test_unsupported_types_fail_when_the_codec_is_built(self, annotation):
        Bad = dataclasses.make_dataclass("Bad", [("field", annotation)])
        with pytest.raises(TypeError):
            decoder(Bad)

    def test_codecs_are_built_once_per_type(self):
        assert encoder(Ruling) is encoder(Ruling)
        assert decoder(Ruling) is decoder(Ruling)


class TestStrictness:
    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (CustodyEntry, "timestamp", 1),  # an int is not a float
            (CustodyEntry, "timestamp", True),
            (CustodyEntry, "custodian", 7),
            (IssuedProcess, "revoked", 0),
            (IssuedProcess, "revoked", "false"),
            (IssuedProcess, "kind", "search_warrant"),
            (IssuedProcess, "instrument_id", 3),  # not persisted: unknown
        ],
    )
    def test_wrong_values_are_rejected_with_their_path(self, cls, field, value):
        sample = {
            CustodyEntry: CustodyEntry(1.0, "x", "collected", "ab"),
            IssuedProcess: IssuedProcess(ProcessKind.SUBPOENA, "d", 0.0, 1.0),
        }[cls]
        payload = {**encoder(cls)(sample), field: value}
        with pytest.raises(SchemaError, match=field):
            decoder(cls)(payload)

    def test_nested_error_paths_name_the_array_index(self):
        ruling = _ENGINE.evaluate(action_corpus(1, seed=2)[0])
        payload = ruling_to_dict(ruling)
        payload["steps"][-1]["authorities"] = ["ok", False]
        index = len(payload["steps"]) - 1
        with pytest.raises(SchemaError) as raised:
            decoder(Ruling)(payload)
        assert raised.value.path == ("steps", index, "authorities", 1)
        assert str(raised.value).startswith(
            f"steps[{index}].authorities[1]: expected a string"
        )

    def test_frozenset_of_enum_rejects_unknown_names(self):
        ruling = next(
            r
            for r in ComplianceEngine().evaluate_many(
                action_corpus(500, seed=3)
            )
            if r.exceptions
        )
        payload = ruling_to_dict(ruling)
        payload["exceptions"][0]["eliminates"] = ["FOURTH_AMENDMENT", "X"]
        with pytest.raises(SchemaError, match=r"exceptions\[0\]\.eliminates"):
            decoder(Ruling)(payload)
