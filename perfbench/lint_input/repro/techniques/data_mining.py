"""Pattern mining over a lawfully held database (Table 1 scene 19).

Per *State v. Sloane*, analyzing data the government already lawfully
possesses for hidden patterns is not a fresh search — so this technique's
declared action needs no process.  The miner itself is a small but real
analysis kit: frequency tables, pairwise co-occurrence, and predicate
flagging over records.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from collections.abc import Callable, Mapping, Sequence

from repro.core.action import DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Place, Timing
from repro.techniques.base import Technique

Record = Mapping[str, object]


@dataclasses.dataclass(frozen=True)
class CoOccurrence:
    """Two field values appearing together in records."""

    field_a: str
    value_a: object
    field_b: str
    value_b: object
    count: int


@dataclasses.dataclass(frozen=True)
class MiningReport:
    """Outcome of mining one database."""

    n_records: int
    frequencies: dict[str, dict[object, int]]
    top_cooccurrences: tuple[CoOccurrence, ...]
    flagged: tuple[int, ...]  # indices of records matching the predicate


class DataMiningTechnique(Technique):
    """Frequency / co-occurrence / predicate mining over records."""

    name = "pattern mining over a lawfully obtained database"

    def __init__(
        self,
        fields: Sequence[str],
        flag_predicate: Callable[[Record], bool] | None = None,
        top_k: int = 10,
    ) -> None:
        if not fields:
            raise ValueError("at least one field to mine is required")
        self.fields = list(fields)
        self.flag_predicate = flag_predicate
        self.top_k = top_k

    def run(self, records: Sequence[Record]) -> MiningReport:
        """Mine the records.

        Returns:
            Frequencies per mined field, the strongest pairwise
            co-occurrences, and indices of predicate-flagged records.
        """
        frequencies: dict[str, Counter] = {
            field: Counter() for field in self.fields
        }
        for record in records:
            for field in self.fields:
                if field in record:
                    frequencies[field][record[field]] += 1

        pair_counts: Counter = Counter()
        for record in records:
            present = [
                (field, record[field])
                for field in self.fields
                if field in record
            ]
            for (fa, va), (fb, vb) in itertools.combinations(present, 2):
                pair_counts[(fa, va, fb, vb)] += 1
        top = tuple(
            CoOccurrence(
                field_a=fa, value_a=va, field_b=fb, value_b=vb, count=count
            )
            for (fa, va, fb, vb), count in pair_counts.most_common(self.top_k)
        )

        flagged: tuple[int, ...] = ()
        if self.flag_predicate is not None:
            flagged = tuple(
                index
                for index, record in enumerate(records)
                if self.flag_predicate(record)
            )

        return MiningReport(
            n_records=len(records),
            frequencies={
                field: dict(counter)
                for field, counter in frequencies.items()
            },
            top_cooccurrences=top,
            flagged=flagged,
        )

    def required_actions(self) -> list[InvestigativeAction]:
        return [
            InvestigativeAction(
                description=(
                    "mine a database already in lawful government custody "
                    "for hidden patterns"
                ),
                actor=Actor.GOVERNMENT,
                data_kind=DataKind.CONTENT,
                timing=Timing.STORED,
                context=EnvironmentContext(place=Place.GOVERNMENT_CUSTODY),
                doctrine=DoctrineFacts(mining_of_lawful_data=True),
            )
        ]
