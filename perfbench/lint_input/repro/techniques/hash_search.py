"""Hash-based known-file search of seized media (Table 1 scene 18).

Hashes every file on a drive — live and recoverable-deleted — and compares
against a known-contraband hash set.  Per *United States v. Crist*, running
this across an entire lawfully held drive is itself a Fourth Amendment
search, so the technique's declared action requires a warrant even though
the media is already in custody.
"""

from __future__ import annotations

import dataclasses

from repro.core.action import DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.storage.filesystem import SimpleFilesystem
from repro.storage.hashing import KnownFileSet, sha256_hex
from repro.techniques.base import Technique


@dataclasses.dataclass(frozen=True)
class HashHit:
    """One file whose hash matched the known set."""

    file_name: str
    digest: str
    recovered_deleted: bool


@dataclasses.dataclass(frozen=True)
class HashSearchReport:
    """Outcome of a full-drive hash search."""

    files_examined: int
    hits: tuple[HashHit, ...]

    @property
    def hit_count(self) -> int:
        """Number of matches found."""
        return len(self.hits)


class HashSearchTechnique(Technique):
    """Exhaustive hash comparison across a filesystem."""

    name = "full-drive known-file hash search"

    def __init__(self, known: KnownFileSet) -> None:
        self.known = known

    def run(
        self, filesystem: SimpleFilesystem, include_deleted: bool = True
    ) -> HashSearchReport:
        """Hash every file and report known-set matches.

        Args:
            filesystem: The (imaged) filesystem to examine.
            include_deleted: Also hash recoverable deleted files — the
                paper notes recovering deleted files strengthens probable
                cause (section III.A.1(c)).
        """
        contents = filesystem.all_contents(include_deleted=include_deleted)
        hits = []
        for name, data in sorted(contents.items()):
            digest = sha256_hex(data)
            if self.known.contains_hash(digest):
                hits.append(
                    HashHit(
                        file_name=name,
                        digest=digest,
                        recovered_deleted=name.startswith("(deleted) "),
                    )
                )
        return HashSearchReport(
            files_examined=len(contents), hits=tuple(hits)
        )

    def required_actions(self) -> list[InvestigativeAction]:
        return [
            InvestigativeAction(
                description=(
                    "run hash comparisons across the entire lawfully "
                    "obtained drive hunting for particular files"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.GOVERNMENT_CUSTODY),
                doctrine=DoctrineFacts(hash_search_of_lawful_media=True),
            )
        ]
