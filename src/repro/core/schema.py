"""One schema per domain dataclass: JSON codecs derived from the fields.

:func:`encoder` and :func:`decoder` read a dataclass's own declaration
(``dataclasses.fields`` + ``typing.get_type_hints``) once per type, so
the wire format, the ledger format and the dataclass cannot drift apart:

* ``bool``, ``str`` and ``float`` encode as themselves and are checked
  by exact type: ``"false"`` is not a boolean, ``1`` is neither ``True``
  nor ``1.0``;
* enums encode by member name; ``X | None`` allows ``null``;
* ``tuple[T, ...]`` is a JSON array, ``frozenset[E]`` the sorted array;
* nested dataclasses are JSON objects with exactly their declared keys;
* a field whose metadata is :data:`NOT_PERSISTED` (a process-local id)
  is left out both ways, and decoding gives it its default.

Decoding failures raise :class:`SchemaError` with the path to the bad
value (``context.knowingly_exposed``, ``steps[3].text``).  Each codec is
generated as Python source, as :mod:`dataclasses` does for ``__init__``,
so the strict decoder costs no more than a hand-written lax one.  This
module imports only the standard library.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import types
import typing
from collections.abc import Callable
from typing import Any

#: Field metadata for a process-local field: never encoded or decoded,
#: so it must have a default.
NOT_PERSISTED: typing.Mapping[str, Any] = types.MappingProxyType(
    {"persist": False}
)

_PRIMITIVES = {bool: "a boolean", str: "a string", float: "a float"}
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
)


def canonical_json(payload: object) -> str:
    """Compact, sorted-key JSON text: equal values give equal bytes."""
    return _CANONICAL.encode(payload)


class SchemaError(ValueError):
    """A JSON value that does not match a dataclass's declared schema;
    ``path`` holds the field names and array indices leading to it."""

    def __init__(self, reason: str, path: tuple[str | int, ...] = ()) -> None:
        self.reason, self.path = reason, path
        where = "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
        ).lstrip(".")
        super().__init__(f"{where}: {reason}" if where else reason)

    def within(self, prefix: tuple[str | int, ...]) -> SchemaError:
        """The same error, seen from ``prefix`` levels further up."""
        return SchemaError(self.reason, prefix + self.path)


def _show(value: object) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def _wrong_type(value: object, expected: str, path: tuple) -> SchemaError:
    return SchemaError(f"expected {expected}, got {_show(value)}", path)


def _unknown_member(value: object, enum_type: type, path: tuple) -> SchemaError:
    name = enum_type.__name__
    return SchemaError(f"unknown {name} name {_show(value)}", path)


def _bad_keys(value: object, keys: frozenset[str]) -> SchemaError:
    if not isinstance(value, dict):
        return _wrong_type(value, "an object", ())
    missing = sorted(keys - value.keys())
    if missing:
        return SchemaError(f"missing key(s) {', '.join(missing)}")
    unknown = sorted(str(key) for key in value.keys() - keys)
    return SchemaError(f"unknown key(s) {', '.join(unknown)}")


def _fields(cls: Any) -> list[tuple[str, Any]]:
    """``(name, resolved type)`` for every persisted field of ``cls``."""
    fields, hints = dataclasses.fields(cls), typing.get_type_hints(cls)
    persisted = []
    for field in fields:
        if field.metadata.get("persist", True):
            persisted.append((field.name, hints[field.name]))
        elif field.default is field.default_factory is dataclasses.MISSING:
            raise TypeError(f"{cls.__name__}.{field.name} needs a default")
    return persisted


def _classify(tp: Any) -> tuple[str, Any]:
    """``(kind, argument)`` for a supported field type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _PRIMITIVES:
        return "primitive", tp
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return "enum", tp
    if dataclasses.is_dataclass(tp):
        return "dataclass", tp
    if origin in (typing.Union, types.UnionType) and len(args) == 2:
        if type(None) in args:
            return "optional", next(a for a in args if a is not type(None))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return "tuple", args[0]
    if origin is frozenset and len(args) == 1:
        return "frozenset", args[0]
    raise TypeError(f"unsupported field type {tp!r}")


class _Source:
    """Generated code plus the namespace its names refer to."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, Any] = {"SchemaError": SchemaError}

    def ref(self, value: object) -> str:
        """A global name bound to ``value`` in the generated code."""
        name = f"_g{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def compile(self, function: str, cls: type) -> Callable[[Any], Any]:
        code = "\n".join(self.lines) + "\n"
        filename = f"<schema {function} {cls.__qualname__}>"
        exec(compile(code, filename, "exec"), self.namespace)
        built = self.namespace[function]
        built.__name__ = built.__qualname__ = f"{function}_{cls.__name__}"
        built.__module__ = cls.__module__
        return built


# -- encoders --------------------------------------------------------------------

_ENCODERS: dict[type, Callable[[Any], dict]] = {}


def encoder(cls: type) -> Callable[[Any], dict]:
    """The JSON-ready ``dict`` encoder for dataclass ``cls`` (cached)."""
    if cls not in _ENCODERS:
        source = _Source()
        items = ", ".join(
            f"{name!r}: {_encode_expr(tp, f'o.{name}', source, 0)}"
            for name, tp in _fields(cls)
        )
        source.lines = ["def encode(o):", f"    return {{{items}}}"]
        _ENCODERS[cls] = source.compile("encode", cls)
    return _ENCODERS[cls]


def _encode_expr(tp: Any, src: str, source: _Source, depth: int) -> str:
    """An expression encoding the value of the expression ``src``."""
    kind, arg = _classify(tp)
    if kind == "primitive":
        return src
    if kind == "enum":
        return f"{src}._name_"
    if kind == "dataclass":
        return f"{source.ref(encoder(arg))}({src})"
    if kind == "optional":
        inner = _encode_expr(arg, src, source, depth)
        return src if inner == src else f"(None if {src} is None else {inner})"
    item = f"x{depth}"
    inner = _encode_expr(arg, item, source, depth + 1)
    if kind == "frozenset":
        return f"sorted([{inner} for {item} in {src}])"
    return f"list({src})" if inner == item else f"[{inner} for {item} in {src}]"


# -- decoders --------------------------------------------------------------------

_DECODERS: dict[type, Callable[[Any], Any]] = {}


def decoder(cls: type) -> Callable[[Any], Any]:
    """The strict decoder for dataclass ``cls`` (cached).

    The returned function maps a parsed JSON value to an instance that
    compares equal to the encoded one, and raises :class:`SchemaError`
    on any value :func:`encoder` could not have produced.
    """
    if cls not in _DECODERS:
        fields = _fields(cls)
        source = _Source()
        keys = source.ref(frozenset(name for name, _ in fields))
        bad_keys = source.ref(_bad_keys)
        # Equal length plus every declared key present rules out unknown
        # keys too, without building a key set on the fast path.
        source.lines = [
            "def decode(d):",
            f"    if d.__class__ is not dict or len(d) != {len(fields)}:",
            f"        raise {bad_keys}(d, {keys})",
            "    try:",
            *(f"        v{i} = d[{name!r}]" for i, (name, _) in enumerate(fields)),
            "    except KeyError:",
            f"        raise {bad_keys}(d, {keys}) from None",
        ]
        for i, (name, tp) in enumerate(fields):
            _decode_lines(tp, f"v{i}", repr(name), source, "    ", 0)
        arguments = ", ".join(
            f"{name}=v{i}" for i, (name, _) in enumerate(fields)
        )
        source.lines.append(f"    return {source.ref(cls)}({arguments})")
        _DECODERS[cls] = source.compile("decode", cls)
    return _DECODERS[cls]


def _decode_lines(
    tp: Any, var: str, path: str, source: _Source, indent: str, depth: int
) -> None:
    """Append statements that check ``var`` and convert it in place.

    ``path`` is the source text of the items of the value's path tuple.
    """
    kind, arg = _classify(tp)
    emit = source.lines.append
    where = f"({path},)"
    if kind == "primitive":
        wrong = source.ref(_wrong_type)
        emit(f"{indent}if {var}.__class__ is not {source.ref(arg)}:")
        emit(f"{indent}    raise {wrong}({var}, {_PRIMITIVES[arg]!r}, {where})")
    elif kind == "enum":
        unknown, enum_type = source.ref(_unknown_member), source.ref(arg)
        emit(f"{indent}try:")
        emit(f"{indent}    {var} = {source.ref(arg.__members__)}[{var}]")
        emit(f"{indent}except (KeyError, TypeError):")
        emit(f"{indent}    raise {unknown}({var}, {enum_type}, {where}) from None")
    elif kind == "dataclass":
        emit(f"{indent}try:")
        emit(f"{indent}    {var} = {source.ref(decoder(arg))}({var})")
        emit(f"{indent}except SchemaError as exc:")
        emit(f"{indent}    raise exc.within({where}) from None")
    elif kind == "optional":
        emit(f"{indent}if {var} is not None:")
        _decode_lines(arg, var, path, source, indent + "    ", depth)
    else:
        index, item, wrong = f"i{depth}", f"x{depth}", source.ref(_wrong_type)
        emit(f"{indent}if {var}.__class__ is not list:")
        emit(f"{indent}    raise {wrong}({var}, 'an array', {where})")
        # Primitive items are only checked, so the list itself is copied.
        converts = _classify(arg)[0] != "primitive"
        items = f"items{depth}" if converts else var
        if converts:
            emit(f"{indent}{items} = []")
        emit(f"{indent}for {index}, {item} in enumerate({var}):")
        _decode_lines(
            arg, item, f"{path}, {index}", source, indent + "    ", depth + 1
        )
        if converts:
            emit(f"{indent}    {items}.append({item})")
        container = source.ref(tuple if kind == "tuple" else frozenset)
        emit(f"{indent}{var} = {container}({items})")
