"""Indexed and full-text queries over a persisted ledger.

The query layer answers the audit-at-scale questions the ROADMAP names —
"all rulings citing §2703 where suppression was granted" is
:func:`rulings_citing` with ``suppressed=True`` — without deserializing
ruling documents unless the caller asks for them.

Determinism: every query orders its results by fingerprint digest (a
pure function of ruling content), so the same ledger *contents* always
answer identically regardless of the order rows were inserted in.  The
FTS permutation property test pins this.
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import ProcessKind
from repro.core.schema import encoder
from repro.ledger.store import Ledger


@dataclasses.dataclass(frozen=True)
class RulingRow:
    """One ruling as a query result (document not deserialized)."""

    fingerprint_digest: str
    required_process: str
    needs_process: bool
    citations: tuple[str, ...]
    suppression_outcomes: tuple[str, ...]

    def to_dict(self) -> dict:
        """JSON-serializable view (what ``repro ledger query`` prints)."""
        return encoder(RulingRow)(self)


def _attach_details(ledger: Ledger, rows: list) -> list[RulingRow]:
    """Hydrate citation and suppression columns for matched rulings."""
    db = ledger._db  # query layer is a friend module of the store
    results: list[RulingRow] = []
    for row in rows:
        citations = tuple(
            c["authority_key"]
            for c in db.execute(
                "SELECT authority_key FROM ruling_citations "
                "WHERE ruling_id = ? ORDER BY authority_key",
                (row["id"],),
            )
        )
        outcomes = tuple(
            s["outcome"]
            for s in db.execute(
                "SELECT outcome FROM suppression_outcomes "
                "WHERE fingerprint_digest = ? ORDER BY outcome",
                (row["fingerprint_digest"],),
            )
        )
        results.append(
            RulingRow(
                fingerprint_digest=row["fingerprint_digest"],
                required_process=row["required_process"],
                needs_process=bool(row["needs_process"]),
                citations=citations,
                suppression_outcomes=outcomes,
            )
        )
    return results


def rulings_citing(
    ledger: Ledger,
    authority_key: str | None = None,
    required_process: ProcessKind | str | None = None,
    suppressed: bool | None = None,
    limit: int | None = None,
) -> list[RulingRow]:
    """Rulings filtered by citation, required process, and suppression.

    Args:
        ledger: The ledger to query.
        authority_key: Restrict to rulings whose trace cites this
            authority (e.g. ``"sca_2703"`` for 18 U.S.C. § 2703).
        required_process: Restrict to rulings demanding this process.
        suppressed: ``True`` keeps rulings with at least one
            granted-suppression outcome on file; ``False`` keeps
            rulings whose every outcome (if any) admitted the evidence;
            ``None`` ignores suppression entirely.
        limit: Cap on returned rows (after deterministic ordering).

    Returns:
        Matching rulings ordered by fingerprint digest.
    """
    clauses: list[str] = []
    params: list[object] = []
    if authority_key is not None:
        clauses.append(
            "r.id IN (SELECT ruling_id FROM ruling_citations "
            "WHERE authority_key = ?)"
        )
        params.append(authority_key)
    if required_process is not None:
        name = (
            required_process.name
            if isinstance(required_process, ProcessKind)
            else str(required_process)
        )
        clauses.append("r.required_process = ?")
        params.append(name)
    if suppressed is True:
        clauses.append(
            "r.fingerprint_digest IN (SELECT fingerprint_digest "
            "FROM suppression_outcomes WHERE outcome != 'admissible')"
        )
    elif suppressed is False:
        clauses.append(
            "r.fingerprint_digest NOT IN (SELECT fingerprint_digest "
            "FROM suppression_outcomes WHERE outcome != 'admissible')"
        )
    sql = (
        "SELECT r.id, r.fingerprint_digest, r.required_process, "
        "r.needs_process FROM rulings r"
    )
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += " ORDER BY r.fingerprint_digest"
    if limit is not None:
        sql += " LIMIT ?"
        params.append(int(limit))
    rows = ledger._db.execute(sql, params).fetchall()
    return _attach_details(ledger, rows)


def search_reasoning(
    ledger: Ledger, query: str, limit: int | None = None
) -> list[RulingRow]:
    """Full-text search over ruling reasoning traces.

    Uses the FTS5 index when the linked SQLite provides it; otherwise
    degrades to a portable substring scan (the query is then treated as
    a literal phrase, not FTS syntax).  Either way results are ordered
    by fingerprint digest, so both paths agree on membership ordering.
    """
    if ledger.fts_enabled:
        sql = (
            "SELECT r.id, r.fingerprint_digest, r.required_process, "
            "r.needs_process FROM rulings r "
            "WHERE r.id IN (SELECT rowid FROM ruling_fts WHERE ruling_fts "
            "MATCH ?) ORDER BY r.fingerprint_digest"
        )
        params: list[object] = [query]
    else:
        sql = (
            "SELECT r.id, r.fingerprint_digest, r.required_process, "
            "r.needs_process FROM rulings r "
            "WHERE instr(lower(r.reasoning_text), lower(?)) > 0 "
            "ORDER BY r.fingerprint_digest"
        )
        params = [query.strip('"')]
    if limit is not None:
        sql += " LIMIT ?"
        params.append(int(limit))
    rows = ledger._db.execute(sql, params).fetchall()
    return _attach_details(ledger, rows)


def process_histogram(ledger: Ledger) -> dict[str, int]:
    """Ruling counts per required process (all kinds present, 0-filled)."""
    histogram = {kind.name: 0 for kind in ProcessKind}
    for row in ledger._db.execute(
        "SELECT required_process, COUNT(*) AS n FROM rulings "
        "GROUP BY required_process"
    ):
        histogram[row["required_process"]] = row["n"]
    return histogram


def citation_histogram(
    ledger: Ledger, limit: int | None = None
) -> dict[str, int]:
    """How many persisted rulings cite each authority."""
    sql = (
        "SELECT authority_key, COUNT(*) AS n FROM ruling_citations "
        "GROUP BY authority_key ORDER BY n DESC, authority_key"
    )
    if limit is not None:
        sql += f" LIMIT {int(limit)}"
    return {
        row["authority_key"]: row["n"]
        for row in ledger._db.execute(sql)
    }


def suppression_histogram(ledger: Ledger) -> dict[str, int]:
    """Suppression outcomes by kind (admissible/suppressed/derivative)."""
    return {
        row["outcome"]: row["n"]
        for row in ledger._db.execute(
            "SELECT outcome, COUNT(*) AS n FROM suppression_outcomes "
            "GROUP BY outcome ORDER BY outcome"
        )
    }
