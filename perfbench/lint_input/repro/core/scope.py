"""Warrant scope: particularity, made operational.

Section III.A.2(a) of the paper: "a good technique can identify records
that only relate to a particular crime and to include specific categories
of the types of records likely to be found", and "If the investigation
involves multiple locations, agents should obtain multiple warrants".

A :class:`WarrantScope` captures what one warrant authorizes — the place,
the crime under investigation, and the record categories named — and the
checking helpers classify each examined record as in scope, plain-view
seizable, or out of scope.
"""

from __future__ import annotations

import dataclasses
import enum


class ScopeDecision(enum.Enum):
    """How one examined record relates to the warrant's scope."""

    #: Named category, authorized location: seize under the warrant.
    IN_SCOPE = "in scope"
    #: Outside the named categories but incriminating on its face and
    #: encountered from a lawful vantage: seizable under plain view; a
    #: fresh warrant for the new crime is the prudent next step.
    PLAIN_VIEW = "plain view"
    #: Outside the scope and not facially incriminating: may not be seized.
    OUT_OF_SCOPE = "out of scope"
    #: Stored at a location the warrant does not cover: a separate
    #: warrant is required no matter the category.
    WRONG_LOCATION = "wrong location"


@dataclasses.dataclass(frozen=True)
class WarrantScope:
    """What one warrant authorizes.

    Attributes:
        place: The place to be searched (one warrant, one place).
        crime: The crime under investigation.
        categories: Record categories named in the warrant (e.g.
            ``{"financial-records", "email"}``).
        locations: Data locations the warrant reaches.  Network searches
            that would pull data from other locations need further
            warrants (Walser; paper section III.A.2(a)).
    """

    place: str
    crime: str
    categories: frozenset[str]
    locations: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.place:
            raise ValueError("a warrant must particularly describe a place")
        if not self.categories:
            raise ValueError(
                "a warrant must name the categories of records sought"
            )
        if not self.locations:
            object.__setattr__(
                self, "locations", frozenset({self.place})
            )

    def covers_category(self, category: str) -> bool:
        """Whether a record category is named in the warrant."""
        return category in self.categories

    def covers_location(self, location: str) -> bool:
        """Whether a data location is within the warrant's reach."""
        return location in self.locations


@dataclasses.dataclass(frozen=True)
class ExaminedRecord:
    """One record encountered during a warrant-scoped search.

    Attributes:
        name: Record identifier.
        category: Record category (matched against the scope).
        location: Where the record physically lives.
        incriminating_apparent: Whether the record's incriminating
            character is immediately apparent (the plain-view predicate).
    """

    name: str
    category: str
    location: str
    incriminating_apparent: bool = False


def classify_record(
    scope: WarrantScope, record: ExaminedRecord
) -> ScopeDecision:
    """Classify one examined record against a warrant's scope."""
    if not scope.covers_location(record.location):
        return ScopeDecision.WRONG_LOCATION
    if scope.covers_category(record.category):
        return ScopeDecision.IN_SCOPE
    if record.incriminating_apparent:
        return ScopeDecision.PLAIN_VIEW
    return ScopeDecision.OUT_OF_SCOPE


def locations_requiring_new_warrants(
    scope: WarrantScope, records: list[ExaminedRecord]
) -> frozenset[str]:
    """Locations touched by a search that this warrant does not cover.

    Each returned location needs its own warrant before its data may be
    examined (the multi-location rule).
    """
    return frozenset(
        record.location
        for record in records
        if not scope.covers_location(record.location)
    )
