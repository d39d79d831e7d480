"""Warrant-scoped searching (paper section III.A.2(a)).

"A good technique can identify records that only relate to a particular
crime" — this module is that technique: it walks a body of records (or a
filesystem), classifies each against the warrant's scope, seizes only what
the warrant (or plain view) authorizes, and reports the locations that
would need further warrants.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.core.action import InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.core.scope import (
    ExaminedRecord,
    ScopeDecision,
    WarrantScope,
    classify_record,
    locations_requiring_new_warrants,
)
from repro.storage.filesystem import SimpleFilesystem
from repro.techniques.base import Technique

#: Categorizer: maps (file name, contents) to an ExaminedRecord.
Categorizer = Callable[[str, bytes], ExaminedRecord]


@dataclasses.dataclass(frozen=True)
class ScopedSearchReport:
    """Outcome of one warrant-scoped search.

    Attributes:
        seized_in_scope: Records seized under the warrant itself.
        seized_plain_view: Out-of-category records seized under plain
            view (each should ground a fresh warrant for the new crime).
        left_untouched: Records the search may not seize.
        locations_needing_warrants: Data locations touched that the
            warrant does not reach.
    """

    seized_in_scope: tuple[ExaminedRecord, ...]
    seized_plain_view: tuple[ExaminedRecord, ...]
    left_untouched: tuple[ExaminedRecord, ...]
    locations_needing_warrants: frozenset[str]

    @property
    def total_examined(self) -> int:
        """How many records the search classified."""
        return (
            len(self.seized_in_scope)
            + len(self.seized_plain_view)
            + len(self.left_untouched)
        )

    @property
    def over_seizure_count(self) -> int:
        """Records an unscoped tool would have seized but this one left."""
        return len(self.left_untouched)


class ScopedSearchTechnique(Technique):
    """A search tool that respects warrant particularity."""

    name = "warrant-scoped record search"

    def __init__(self, scope: WarrantScope) -> None:
        self.scope = scope

    def run(self, records: list[ExaminedRecord]) -> ScopedSearchReport:
        """Classify and (virtually) seize records against the scope."""
        in_scope: list[ExaminedRecord] = []
        plain_view: list[ExaminedRecord] = []
        untouched: list[ExaminedRecord] = []
        for record in records:
            decision = classify_record(self.scope, record)
            if decision is ScopeDecision.IN_SCOPE:
                in_scope.append(record)
            elif decision is ScopeDecision.PLAIN_VIEW:
                plain_view.append(record)
            else:
                untouched.append(record)
        return ScopedSearchReport(
            seized_in_scope=tuple(in_scope),
            seized_plain_view=tuple(plain_view),
            left_untouched=tuple(untouched),
            locations_needing_warrants=locations_requiring_new_warrants(
                self.scope, records
            ),
        )

    def run_on_filesystem(
        self,
        filesystem: SimpleFilesystem,
        categorizer: Categorizer,
        location: str | None = None,
        include_deleted: bool = True,
    ) -> ScopedSearchReport:
        """Run against a filesystem, categorizing each file.

        Args:
            filesystem: The (imaged) filesystem to search.
            categorizer: Assigns each file a category / location /
                plain-view flag.
            location: Overrides every record's location (e.g. the seized
                machine's place); ``None`` keeps the categorizer's.
            include_deleted: Also classify recoverable deleted files.
        """
        records = []
        contents = filesystem.all_contents(include_deleted=include_deleted)
        for name, data in sorted(contents.items()):
            record = categorizer(name, data)
            if location is not None:
                record = dataclasses.replace(record, location=location)
            records.append(record)
        return self.run(records)

    def required_actions(self) -> list[InvestigativeAction]:
        return [
            InvestigativeAction(
                description=(
                    f"search {self.scope.place} for "
                    f"{', '.join(sorted(self.scope.categories))} records "
                    f"related to {self.scope.crime}"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.SUSPECT_PREMISES),
            )
        ]
