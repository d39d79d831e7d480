"""Inline suppression comments for the linter.

A finding is suppressed by a comment of the form::

    isp.attach_tap(...)  # repro-lint: disable=REPRO110 -- provider exception

The justification after ``--`` is **mandatory**: a suppression without
one is ignored, so every accepted deviation carries its legal reasoning
in the tree.  A comment on its own line suppresses the next code line,
so long call chains can keep their annotation above them.

Suppressions feed two consumers: the runner drops matching diagnostics,
and the provenance taint analysis (REPRO111) treats a site whose
REPRO110 finding is suppressed as *sanctioned* — its results are not
poisoned, because the justification asserts a recognised exception.
"""

from __future__ import annotations

import dataclasses
import re

_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z0-9, ]+?)"
    r"\s*--\s*(?P<why>\S.*)$"
)


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment.

    Attributes:
        line: The 1-based source line the suppression applies to.
        codes: The diagnostic codes it silences.
        justification: The stated reason (never empty).
    """

    line: int
    codes: frozenset[str]
    justification: str


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """All effective suppressions of one module, keyed by target line.

    A trailing comment targets its own line; a comment-only line targets
    the next *code* line — blank lines and further comment lines (a
    multi-line justification) are skipped, so an annotation block above
    a statement covers the statement itself.
    """
    found: dict[int, Suppression] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _PATTERN.search(text)
        if match is None:
            continue
        codes = frozenset(
            code.strip()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        if not codes:
            continue
        if text.lstrip().startswith("#"):
            target = lineno + 1
            while target <= len(lines):
                following = lines[target - 1].strip()
                if following and not following.startswith("#"):
                    break
                target += 1
        else:
            target = lineno
        existing = found.get(target)
        if existing is not None:
            codes = codes | existing.codes
        found[target] = Suppression(
            line=target,
            codes=codes,
            justification=match.group("why").strip(),
        )
    return found


def is_suppressed(
    suppressions: dict[int, Suppression], code: str, line: int | None
) -> bool:
    """Whether a finding with the given code and line is suppressed."""
    if line is None:
        return False
    suppression = suppressions.get(line)
    return suppression is not None and code in suppression.codes
