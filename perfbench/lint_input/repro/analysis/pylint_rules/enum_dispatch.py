"""REPRO105: dispatch over core enums must be exhaustive.

``ProcessKind`` and ``Admissibility`` are the two enums whose members
gate Table 1 answers and suppression outcomes.  A dict table or
``match`` statement that covers only some members fails at a distance —
usually as a ``KeyError`` deep inside a benchmark — when the missing
member finally shows up.  The rule checks any dict literal whose keys
are all ``Enum.MEMBER`` attributes, and any ``match`` over those enums
without a wildcard, against the real member list imported from
:mod:`repro.core.enums`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.pylint_rules.base import (
    LintRule,
    ModuleUnderLint,
    register,
)
from repro.core.enums import Admissibility, ProcessKind

#: Enum name -> the full set of member names dispatch must cover.
_WATCHED_ENUMS: dict[str, frozenset[str]] = {
    "ProcessKind": frozenset(member.name for member in ProcessKind),
    "Admissibility": frozenset(member.name for member in Admissibility),
}


def _enum_member_key(node: ast.expr) -> tuple[str, str] | None:
    """``ProcessKind.WARRANT`` -> ("ProcessKind", "WARRANT")."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _WATCHED_ENUMS
    ):
        return node.value.id, node.attr
    return None


def _missing_members(
    enum_name: str, covered: set[str]
) -> tuple[str, ...]:
    """Members of a watched enum a dispatch site failed to cover."""
    return tuple(sorted(_WATCHED_ENUMS[enum_name] - covered))


@register
class EnumDispatchRule(LintRule):
    """Dict tables / match statements over watched enums cover members."""

    code = "REPRO105"
    name = "exhaustive-enum-dispatch"
    description = (
        "dict tables and match statements over ProcessKind/"
        "Admissibility must cover every member"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Dict):
                yield from self._check_dict(module, node)
            elif isinstance(node, ast.Match):
                yield from self._check_match(module, node)

    def _check_dict(
        self, module: ModuleUnderLint, node: ast.Dict
    ) -> Iterator[Diagnostic]:
        keys = [
            _enum_member_key(key) for key in node.keys if key is not None
        ]
        if len(keys) < 2 or any(key is None for key in keys):
            return
        if len(node.keys) != len(keys):  # had a **splat entry
            return
        enum_names = {key[0] for key in keys if key is not None}
        if len(enum_names) != 1:
            return
        (enum_name,) = enum_names
        covered = {key[1] for key in keys if key is not None}
        missing = _missing_members(enum_name, covered)
        if missing:
            yield self.diagnostic(
                module,
                node,
                f"dict dispatch over {enum_name} misses "
                f"{', '.join(missing)}; lookups for those members "
                "will raise KeyError",
                fix_it=(
                    f"add entries for {', '.join(missing)} (or switch "
                    "to .get() with an explicit default)"
                ),
            )

    def _check_match(
        self, module: ModuleUnderLint, node: ast.Match
    ) -> Iterator[Diagnostic]:
        covered: set[str] = set()
        enum_names: set[str] = set()
        for case in node.cases:
            pattern = case.pattern
            if isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                return  # wildcard `case _:` — exhaustive by construction
            if isinstance(pattern, ast.MatchValue):
                key = _enum_member_key(pattern.value)
                if key is None:
                    return  # matching something other than watched enums
                enum_names.add(key[0])
                covered.add(key[1])
            else:
                return  # structural pattern — out of scope
        if len(enum_names) != 1:
            return
        (enum_name,) = enum_names
        missing = _missing_members(enum_name, covered)
        if missing:
            yield self.diagnostic(
                module,
                node,
                f"match over {enum_name} misses {', '.join(missing)} "
                "and has no wildcard case; those members fall through "
                "silently",
                fix_it=(
                    f"add cases for {', '.join(missing)} or a "
                    "`case _:` arm that fails loudly"
                ),
            )
