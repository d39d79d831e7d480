"""The :class:`Ledger`: durable, queryable legal records over SQLite.

One ledger file outlives every process that wrote to it.  It persists
the four record families the reproduction produces — rulings (keyed by
canonical action fingerprint), dockets and their issued instruments,
suppression outcomes, and chains of custody — and answers indexed
questions about them (:mod:`repro.ledger.queries`) plus full-text
search over reasoning traces.

Design notes:

* **Idempotent writes.**  Every record family has a natural string key
  (fingerprint digest, docket key, instrument key, item key, evidence
  key); re-recording the same fact is a cheap no-op, so pipelines can
  persist at every boundary without bookkeeping.
* **Canonical documents + indexed columns.**  Rulings are stored as
  canonical JSON (:mod:`repro.ledger.serialize`) for byte-exact reload,
  alongside the columns queries filter on.  Equal rulings always write
  identical bytes.
* **Portability.**  The schema (:mod:`repro.ledger.schema`) sticks to
  the SQL core; the one SQLite-only structure (FTS5) is feature-gated
  and degrades to an ``instr`` scan when the module is absent.
"""

from __future__ import annotations

import dataclasses
import sqlite3
from collections.abc import Iterator
from pathlib import Path

from repro.core.fingerprint import ActionFingerprint, fingerprint_digest
from repro.core.ruling import Ruling
from repro.court.docket import Docket, IssuedProcess
from repro.evidence.custody import ChainOfCustody, CustodyEntry
from repro.ledger import schema
from repro.ledger.serialize import (
    citation_keys,
    custody_entry_from_dict,
    fingerprint_from_json,
    fingerprint_to_json,
    instrument_from_dict,
    instrument_to_dict,
    reasoning_text,
    ruling_from_json,
    ruling_to_json,
)


class LedgerError(Exception):
    """Raised on ledger misuse (closed handle, bad migration state)."""


@dataclasses.dataclass
class LedgerStats:
    """Write/read counters for one :class:`Ledger` handle.

    Attributes:
        ruling_writes: Fresh rulings inserted.
        ruling_duplicates: Ruling writes skipped as already present.
        ruling_reads: Rulings reloaded by fingerprint.
        primed_rulings: Rulings streamed out to warm a cache.
        docket_writes: Docket upserts.
        instrument_writes: Instrument upserts.
        custody_writes: Custody chains recorded (entries included).
        suppression_writes: Suppression outcomes recorded.
    """

    ruling_writes: int = 0
    ruling_duplicates: int = 0
    ruling_reads: int = 0
    primed_rulings: int = 0
    docket_writes: int = 0
    instrument_writes: int = 0
    custody_writes: int = 0
    suppression_writes: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable view of the counters."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CustodyRecord:
    """One reloaded chain of custody."""

    item_key: str
    description: str
    content_hash: str
    entries: tuple[CustodyEntry, ...]


@dataclasses.dataclass(frozen=True)
class SuppressionRecord:
    """One reloaded suppression outcome."""

    evidence_key: str
    fingerprint_digest: str
    outcome: str
    reason: str
    run_label: str


def _fts_available(connection: sqlite3.Connection) -> bool:
    """Whether the linked SQLite can create FTS5 virtual tables."""
    try:
        connection.execute(
            "CREATE VIRTUAL TABLE temp.__fts_probe USING fts5(x)"
        )
    except sqlite3.OperationalError:
        return False
    connection.execute("DROP TABLE temp.__fts_probe")
    return True


class Ledger:
    """A SQLite-backed persistent store for legal records.

    Args:
        path: Database file, or ``":memory:"`` for an ephemeral ledger
            (useful in tests and as a null-cost default).

    The constructor opens the database and migrates it to
    :data:`~repro.ledger.schema.SCHEMA_VERSION` via the
    ``PRAGMA user_version`` runner; an already-migrated file is opened
    as-is, and a file from a *newer* schema is refused rather than
    guessed at.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._connection: sqlite3.Connection | None = sqlite3.connect(
            self.path
        )
        self._connection.row_factory = sqlite3.Row
        self._connection.execute("PRAGMA foreign_keys = ON")
        self.stats = LedgerStats()
        self.fts_enabled = _fts_available(self._connection)
        self._migrate()

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> Ledger:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Commit and release the underlying connection (idempotent)."""
        if self._connection is not None:
            self._connection.commit()
            self._connection.close()
            self._connection = None

    @property
    def _db(self) -> sqlite3.Connection:
        if self._connection is None:
            raise LedgerError("ledger is closed")
        return self._connection

    # -- migrations --------------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The database's current ``PRAGMA user_version``."""
        row = self._db.execute("PRAGMA user_version").fetchone()
        return int(row[0])

    def _migrate(self) -> None:
        current = self.schema_version
        target = schema.SCHEMA_VERSION
        if current > target:
            raise LedgerError(
                f"ledger {self.path!r} is at schema version {current}, "
                f"newer than this build's {target}; refusing to open"
            )
        for version, statements, requires_fts in schema.MIGRATIONS:
            if version <= current:
                continue
            if requires_fts and not self.fts_enabled:
                # The FTS migration is optional capability, not core
                # schema: stamp the version so the runner stays linear,
                # and let search fall back to the portable scan.
                self._db.execute(f"PRAGMA user_version = {version}")
                self._db.commit()
                continue
            for statement in statements:
                self._db.execute(statement)
            self._db.execute(f"PRAGMA user_version = {version}")
            self._db.commit()

    # -- rulings -----------------------------------------------------------------

    def record_ruling(
        self, fingerprint: ActionFingerprint, ruling: Ruling
    ) -> bool:
        """Persist one ruling under its fingerprint.

        Returns:
            ``True`` if a new row was written, ``False`` if an
            equal-fingerprint ruling was already on file (the ruling is
            deterministic per fingerprint, so the stored bytes are
            already correct and the write is skipped).
        """
        digest = fingerprint_digest(fingerprint)
        db = self._db
        cursor = db.execute(
            """
            INSERT INTO rulings (
                fingerprint_digest, fingerprint_json, required_process,
                needs_process, ruling_json, reasoning_text
            ) VALUES (?, ?, ?, ?, ?, ?)
            ON CONFLICT (fingerprint_digest) DO NOTHING
            """,
            (
                digest,
                fingerprint_to_json(fingerprint),
                ruling.required_process.name,
                int(ruling.needs_process),
                ruling_to_json(ruling),
                reasoning_text(ruling),
            ),
        )
        if cursor.rowcount == 0:
            self.stats.ruling_duplicates += 1
            return False
        ruling_id = cursor.lastrowid
        db.executemany(
            "INSERT INTO ruling_citations (ruling_id, authority_key) "
            "VALUES (?, ?)",
            [(ruling_id, key) for key in citation_keys(ruling)],
        )
        if self.fts_enabled:
            db.execute(
                "INSERT INTO ruling_fts (rowid, reasoning) VALUES (?, ?)",
                (ruling_id, reasoning_text(ruling)),
            )
        self.stats.ruling_writes += 1
        return True

    def ruling_for(
        self, fingerprint: ActionFingerprint
    ) -> Ruling | None:
        """Reload the persisted ruling for a fingerprint, or ``None``."""
        return self.ruling_for_digest(fingerprint_digest(fingerprint))

    def ruling_for_digest(self, digest: str) -> Ruling | None:
        """Reload a ruling by its fingerprint digest, or ``None``."""
        row = self._db.execute(
            "SELECT ruling_json FROM rulings WHERE fingerprint_digest = ?",
            (digest,),
        ).fetchone()
        if row is None:
            return None
        self.stats.ruling_reads += 1
        return ruling_from_json(row["ruling_json"])

    def iter_rulings(
        self, limit: int | None = None
    ) -> Iterator[tuple[ActionFingerprint, Ruling]]:
        """Stream ``(fingerprint, ruling)`` pairs for cache priming.

        Ordered by fingerprint digest, so iteration order is a pure
        function of ledger *content* — two ledgers holding the same
        rulings stream identically no matter what order the rows
        arrived in.
        """
        sql = (
            "SELECT fingerprint_json, ruling_json FROM rulings "
            "ORDER BY fingerprint_digest"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        for row in self._db.execute(sql):
            self.stats.primed_rulings += 1
            yield (
                fingerprint_from_json(row["fingerprint_json"]),
                ruling_from_json(row["ruling_json"]),
            )

    # -- dockets and instruments -------------------------------------------------

    def record_docket(self, docket_key: str, docket: Docket) -> None:
        """Upsert a docket's application counters under a stable key."""
        self._db.execute(
            """
            INSERT INTO dockets (
                docket_key, applications_received, applications_denied
            ) VALUES (?, ?, ?)
            ON CONFLICT (docket_key) DO UPDATE SET
                applications_received = excluded.applications_received,
                applications_denied = excluded.applications_denied
            """,
            (
                docket_key,
                docket.applications_received,
                docket.applications_denied,
            ),
        )
        self.stats.docket_writes += 1

    def record_instrument(
        self,
        instrument_key: str,
        instrument: IssuedProcess,
        docket_key: str | None = None,
    ) -> None:
        """Upsert one issued instrument, optionally filed on a docket."""
        docket_id = None
        if docket_key is not None:
            row = self._db.execute(
                "SELECT id FROM dockets WHERE docket_key = ?", (docket_key,)
            ).fetchone()
            docket_id = row["id"] if row is not None else None
        payload = instrument_to_dict(instrument)
        self._db.execute(
            """
            INSERT INTO instruments (
                instrument_key, docket_id, kind, issued_to,
                issued_at, expires_at, scope, revoked
            ) VALUES (?, ?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT (instrument_key) DO UPDATE SET
                docket_id = excluded.docket_id,
                kind = excluded.kind,
                issued_to = excluded.issued_to,
                issued_at = excluded.issued_at,
                expires_at = excluded.expires_at,
                scope = excluded.scope,
                revoked = excluded.revoked
            """,
            (
                instrument_key,
                docket_id,
                payload["kind"],
                payload["issued_to"],
                payload["issued_at"],
                payload["expires_at"],
                payload["scope"],
                int(payload["revoked"]),
            ),
        )
        self.stats.instrument_writes += 1

    def instrument_for(self, instrument_key: str) -> IssuedProcess | None:
        """Reload one instrument (with a fresh process-local id)."""
        row = self._db.execute(
            "SELECT kind, issued_to, issued_at, expires_at, scope, revoked "
            "FROM instruments WHERE instrument_key = ?",
            (instrument_key,),
        ).fetchone()
        if row is None:
            return None
        return instrument_from_dict(
            {
                "kind": row["kind"],
                "issued_to": row["issued_to"],
                "issued_at": row["issued_at"],
                "expires_at": row["expires_at"],
                "scope": row["scope"],
                "revoked": bool(row["revoked"]),
            }
        )

    # -- custody -----------------------------------------------------------------

    def record_custody(
        self, item_key: str, chain: ChainOfCustody
    ) -> None:
        """Persist a full chain of custody under a stable item key.

        Re-recording replaces the stored entries wholesale — the chain
        object is the source of truth and only ever grows, so the
        replace is monotone.
        """
        db = self._db
        db.execute(
            """
            INSERT INTO custody_chains (item_key, description, content_hash)
            VALUES (?, ?, ?)
            ON CONFLICT (item_key) DO UPDATE SET
                description = excluded.description,
                content_hash = excluded.content_hash
            """,
            (item_key, chain.item.description, chain.item.content_hash),
        )
        row = db.execute(
            "SELECT id FROM custody_chains WHERE item_key = ?", (item_key,)
        ).fetchone()
        chain_id = row["id"]
        db.execute(
            "DELETE FROM custody_entries WHERE chain_id = ?", (chain_id,)
        )
        db.executemany(
            """
            INSERT INTO custody_entries (
                chain_id, seq, timestamp, custodian, event, content_hash
            ) VALUES (?, ?, ?, ?, ?, ?)
            """,
            [
                (
                    chain_id,
                    seq,
                    entry.timestamp,
                    entry.custodian,
                    entry.event,
                    entry.content_hash,
                )
                for seq, entry in enumerate(chain.entries)
            ],
        )
        self.stats.custody_writes += 1

    def custody_for(self, item_key: str) -> CustodyRecord | None:
        """Reload one chain of custody, or ``None``."""
        row = self._db.execute(
            "SELECT id, description, content_hash FROM custody_chains "
            "WHERE item_key = ?",
            (item_key,),
        ).fetchone()
        if row is None:
            return None
        entries = tuple(
            custody_entry_from_dict(
                {
                    "timestamp": entry["timestamp"],
                    "custodian": entry["custodian"],
                    "event": entry["event"],
                    "content_hash": entry["content_hash"],
                }
            )
            for entry in self._db.execute(
                "SELECT timestamp, custodian, event, content_hash "
                "FROM custody_entries WHERE chain_id = ? ORDER BY seq",
                (row["id"],),
            )
        )
        return CustodyRecord(
            item_key=item_key,
            description=row["description"],
            content_hash=row["content_hash"],
            entries=entries,
        )

    # -- suppression outcomes ----------------------------------------------------

    def record_suppression(
        self,
        evidence_key: str,
        fingerprint: ActionFingerprint,
        outcome: str,
        reason: str = "",
        run_label: str = "",
    ) -> None:
        """Persist one evidence item's suppression-hearing outcome."""
        self._db.execute(
            """
            INSERT INTO suppression_outcomes (
                evidence_key, fingerprint_digest, outcome, reason, run_label
            ) VALUES (?, ?, ?, ?, ?)
            ON CONFLICT (evidence_key) DO UPDATE SET
                fingerprint_digest = excluded.fingerprint_digest,
                outcome = excluded.outcome,
                reason = excluded.reason,
                run_label = excluded.run_label
            """,
            (
                evidence_key,
                fingerprint_digest(fingerprint),
                outcome,
                reason,
                run_label,
            ),
        )
        self.stats.suppression_writes += 1

    def suppression_for(self, evidence_key: str) -> SuppressionRecord | None:
        """Reload one suppression outcome, or ``None``."""
        row = self._db.execute(
            "SELECT evidence_key, fingerprint_digest, outcome, reason, "
            "run_label FROM suppression_outcomes WHERE evidence_key = ?",
            (evidence_key,),
        ).fetchone()
        if row is None:
            return None
        return SuppressionRecord(
            evidence_key=row["evidence_key"],
            fingerprint_digest=row["fingerprint_digest"],
            outcome=row["outcome"],
            reason=row["reason"],
            run_label=row["run_label"],
        )

    # -- maintenance -------------------------------------------------------------

    def commit(self) -> None:
        """Flush pending writes to the file."""
        self._db.commit()

    def counts(self) -> dict[str, int]:
        """Row counts per record family."""
        db = self._db
        return {
            table: db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in (
                "rulings",
                "ruling_citations",
                "dockets",
                "instruments",
                "custody_chains",
                "custody_entries",
                "suppression_outcomes",
            )
        }

    def describe(self) -> dict:
        """Stats payload for ``repro ledger stats`` (JSON-serializable)."""
        db = self._db
        page_count = db.execute("PRAGMA page_count").fetchone()[0]
        page_size = db.execute("PRAGMA page_size").fetchone()[0]
        return {
            "path": self.path,
            "schema_version": self.schema_version,
            "schema_digest": schema.schema_digest(),
            "fts_enabled": self.fts_enabled,
            "size_bytes": page_count * page_size,
            "counts": self.counts(),
            "session_stats": self.stats.to_dict(),
        }

    def vacuum(self) -> int:
        """Commit, ``VACUUM``, and return the database size in bytes."""
        db = self._db
        db.commit()
        db.execute("VACUUM")
        page_count = db.execute("PRAGMA page_count").fetchone()[0]
        page_size = db.execute("PRAGMA page_size").fetchone()[0]
        return page_count * page_size
