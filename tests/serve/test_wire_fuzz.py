"""Wire fuzz: every malformed action is an error, never a different ruling.

For every field path of an encoded action, each value the encoder could
not have produced — a wrong JSON type, ``null`` on a non-optional field,
an unknown enum name, an extra key, a missing key — must make
``action_from_dict`` raise :class:`ProtocolError`, and a live server
must answer ``ok: false`` and count a ``bad_action`` error instead of
ruling on it.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import types
import typing

import pytest

from repro.core.action import InvestigativeAction
from repro.core.engine import ComplianceEngine
from repro.core.enums import ProcessKind
from repro.obs import OBS
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.protocol import ProtocolError, action_from_dict, action_to_dict
from repro.serve.server import ServerConfig
from repro.workloads import action_corpus

_WRONG_TYPES = ("false", 0, 1, {}, [], 0.5)


def _leaves(cls: type, prefix: tuple = ()) -> list[tuple[tuple, object]]:
    """``(path, type hint)`` for every scalar field under ``cls``."""
    hints = typing.get_type_hints(cls)
    leaves = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if dataclasses.is_dataclass(hint):
            leaves.extend(_leaves(hint, prefix + (field.name,)))
        else:
            leaves.append((prefix + (field.name,), hint))
    return leaves


def _objects(cls: type, prefix: tuple = ()) -> list[tuple[tuple, type]]:
    """``(path, dataclass)`` for the root object and every nested one."""
    hints = typing.get_type_hints(cls)
    found = [(prefix, cls)]
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[field.name]):
            found.extend(_objects(hints[field.name], prefix + (field.name,)))
    return found


def _optional(hint: object) -> bool:
    return isinstance(hint, types.UnionType) and type(None) in hint.__args__


def _base(hint: object) -> object:
    if _optional(hint):
        return next(arg for arg in hint.__args__ if arg is not type(None))
    return hint


def _is_bad(value: object, hint: object) -> bool:
    """Whether ``value`` is something the encoder never emits for ``hint``."""
    if value is None:
        return not _optional(hint)
    base = _base(hint)
    if isinstance(base, type) and issubclass(base, enum.Enum):
        return not (isinstance(value, str) and value in base.__members__)
    return type(value) is not base


def _get(payload: dict, path: tuple) -> object:
    for key in path:
        payload = payload[key]
    return payload


def _with(payload: dict, path: tuple, value: object) -> dict:
    mutated = copy.deepcopy(payload)
    _get(mutated, path[:-1])[path[-1]] = value
    return mutated


def _without(payload: dict, path: tuple) -> dict:
    mutated = copy.deepcopy(payload)
    del _get(mutated, path[:-1])[path[-1]]
    return mutated


def mutations(payload: dict) -> list[tuple[str, dict]]:
    """Every single-point corruption of one encoded action."""
    cases = []
    for path, hint in _leaves(InvestigativeAction):
        name = ".".join(path)
        bad_values = [v for v in _WRONG_TYPES + (None,) if _is_bad(v, hint)]
        base = _base(hint)
        if isinstance(base, type) and issubclass(base, enum.Enum):
            # An unknown name, and a real member's name in the wrong case.
            bad_values += ["NOT_A_MEMBER", next(iter(base.__members__)).lower()]
        for value in bad_values:
            cases.append((f"{name}={value!r}", _with(payload, path, value)))
        cases.append((f"missing {name}", _without(payload, path)))
    for path, _cls in _objects(InvestigativeAction):
        name = ".".join(path) or "<root>"
        cases.append((f"extra key in {name}", _with(payload, path + ("zz",), 1)))
        if path:
            for value in ("false", 0, [], None, [_get(payload, path)]):
                cases.append((f"{name}={value!r}", _with(payload, path, value)))
    return cases


_SAMPLE = action_to_dict(action_corpus(1, seed=41)[0])
_CASES = mutations(_SAMPLE)


def test_fuzz_covers_every_field_path():
    names = " ".join(name for name, _ in _CASES)
    for path, _hint in _leaves(InvestigativeAction):
        assert f"missing {'.'.join(path)}" in names
    assert len(_CASES) > 150


@pytest.mark.parametrize(
    "payload", [case for _, case in _CASES], ids=[name for name, _ in _CASES]
)
def test_every_mutation_raises_protocol_error(payload):
    with pytest.raises(ProtocolError):
        action_from_dict(payload)


@pytest.mark.parametrize("payload", [None, "x", 1, [], [_SAMPLE], True])
def test_non_object_action_raises_protocol_error(payload):
    with pytest.raises(ProtocolError):
        action_from_dict(payload)


class TestRoadmapProbes:
    """Values that a coercing decoder read as ``True`` and re-ruled."""

    @staticmethod
    def _probe(section: str, flag: str, expect_false: ProcessKind):
        engine = ComplianceEngine()
        for action in action_corpus(3000, seed=5):
            facts = getattr(action, section)
            if getattr(facts, flag):
                continue
            flipped = dataclasses.replace(
                action,
                **{section: dataclasses.replace(facts, **{flag: True})},
            )
            if (
                engine.evaluate(action).required_process is expect_false
                and engine.evaluate(flipped).required_process
                is not expect_false
            ):
                return action
        raise AssertionError(f"no corpus action where {flag} matters")

    @pytest.mark.parametrize(
        "section, flag, process",
        [
            ("context", "knowingly_exposed", ProcessKind.WIRETAP_ORDER),
            ("doctrine", "hash_search_of_lawful_media", ProcessKind.NONE),
        ],
    )
    def test_string_false_is_rejected_not_read_as_true(
        self, section, flag, process
    ):
        action = self._probe(section, flag, process)
        payload = action_to_dict(action)
        assert payload[section][flag] is False
        payload[section][flag] = "false"
        with pytest.raises(ProtocolError, match=f"{section}.{flag}"):
            action_from_dict(payload)

        with ServerThread(
            ServerConfig(port=0, metrics_port=0, n_shards=2)
        ) as thread:
            with ServeClient(*thread.address) as client:
                client.send_line(
                    {"op": "rule", "id": 1, "actions": [payload]}
                )
                response = client.read_response()
        assert response["ok"] is False and "rulings" not in response
        assert f"{section}.{flag}" in response["error"]


def test_live_server_rejects_every_mutation_and_counts_it():
    good = action_to_dict(action_corpus(1, seed=42)[0])
    with ServerThread(ServerConfig(port=0, metrics_port=0, n_shards=2)) as thread:
        with ServeClient(*thread.address) as client:
            for index, (name, payload) in enumerate(_CASES):
                client.send_line(
                    {"op": "rule", "id": index, "actions": [good, payload]}
                )
                response = client.read_response()
                assert response["id"] == index, name
                assert response["ok"] is False, name
                assert "rulings" not in response, name
            # The connection survived every rejection and still rules.
            assert client.rule(action_corpus(3, seed=43))["ok"] is True
        errors = OBS.registry.counter("repro_serve_errors_total")
        assert errors.value(reason="bad_action") == len(_CASES)
