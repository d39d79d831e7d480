"""The ledger's relational schema, as explicit DDL.

Every table is written in the portable core of SQL — ``TEXT`` /
``INTEGER`` / ``REAL`` columns, declared primary and foreign keys,
ordinary secondary indexes — so the schema is a drop-in for Postgres:
nothing below uses a SQLite-only type, ``AUTOINCREMENT``, partial
indexes, or expression defaults.  The single deliberate exception is the
FTS5 full-text index over ruling reasoning traces, which is isolated in
its own migration and consulted only behind
:data:`~repro.ledger.store.Ledger.fts_enabled` (a Postgres port swaps it
for a ``tsvector`` column and a GIN index; see ``docs/ledger.md``).

Migrations are append-only: each entry in :data:`MIGRATIONS` carries the
``PRAGMA user_version`` it upgrades the database *to* and the statements
that get it there.  :func:`schema_digest` hashes the full DDL text so
golden fixtures can fail loudly when the schema drifts.
"""

from __future__ import annotations

import hashlib

#: The schema version a fully migrated database reports via
#: ``PRAGMA user_version``.
SCHEMA_VERSION = 2

#: Version 1: the relational core.  Rulings are stored twice over — a
#: canonical JSON document for byte-exact reload, plus the indexed
#: columns queries filter on — and citations are exploded into a join
#: table so "all rulings citing §2703" is one indexed lookup.
_V1_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE rulings (
        id INTEGER PRIMARY KEY,
        fingerprint_digest TEXT NOT NULL UNIQUE,
        fingerprint_json TEXT NOT NULL,
        required_process TEXT NOT NULL,
        needs_process INTEGER NOT NULL,
        ruling_json TEXT NOT NULL,
        reasoning_text TEXT NOT NULL
    )
    """,
    """
    CREATE INDEX idx_rulings_required_process
        ON rulings (required_process)
    """,
    """
    CREATE TABLE ruling_citations (
        ruling_id INTEGER NOT NULL REFERENCES rulings (id),
        authority_key TEXT NOT NULL,
        PRIMARY KEY (ruling_id, authority_key)
    )
    """,
    """
    CREATE INDEX idx_citations_authority
        ON ruling_citations (authority_key)
    """,
    """
    CREATE TABLE dockets (
        id INTEGER PRIMARY KEY,
        docket_key TEXT NOT NULL UNIQUE,
        applications_received INTEGER NOT NULL,
        applications_denied INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE instruments (
        id INTEGER PRIMARY KEY,
        instrument_key TEXT NOT NULL UNIQUE,
        docket_id INTEGER REFERENCES dockets (id),
        kind TEXT NOT NULL,
        issued_to TEXT NOT NULL,
        issued_at REAL NOT NULL,
        expires_at REAL NOT NULL,
        scope TEXT NOT NULL,
        revoked INTEGER NOT NULL
    )
    """,
    """
    CREATE INDEX idx_instruments_docket ON instruments (docket_id)
    """,
    """
    CREATE INDEX idx_instruments_holder ON instruments (issued_to)
    """,
    """
    CREATE TABLE custody_chains (
        id INTEGER PRIMARY KEY,
        item_key TEXT NOT NULL UNIQUE,
        description TEXT NOT NULL,
        content_hash TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE custody_entries (
        chain_id INTEGER NOT NULL REFERENCES custody_chains (id),
        seq INTEGER NOT NULL,
        timestamp REAL NOT NULL,
        custodian TEXT NOT NULL,
        event TEXT NOT NULL,
        content_hash TEXT NOT NULL,
        PRIMARY KEY (chain_id, seq)
    )
    """,
    """
    CREATE TABLE suppression_outcomes (
        id INTEGER PRIMARY KEY,
        evidence_key TEXT NOT NULL UNIQUE,
        fingerprint_digest TEXT NOT NULL,
        outcome TEXT NOT NULL,
        reason TEXT NOT NULL,
        run_label TEXT NOT NULL
    )
    """,
    """
    CREATE INDEX idx_suppression_fingerprint
        ON suppression_outcomes (fingerprint_digest)
    """,
    """
    CREATE INDEX idx_suppression_outcome
        ON suppression_outcomes (outcome)
    """,
)

#: Version 2: full-text search over reasoning traces.  SQLite-only
#: (FTS5); applied only when the linked SQLite has the module compiled
#: in, and the store degrades to an indexed ``LIKE`` scan without it.
#: External-content mode keeps the reasoning text single-sourced in
#: ``rulings``; the backfill covers rows recorded under version 1.
_V2_STATEMENTS: tuple[str, ...] = (
    """
    CREATE VIRTUAL TABLE ruling_fts USING fts5(
        reasoning,
        content='rulings',
        content_rowid='id'
    )
    """,
    """
    INSERT INTO ruling_fts (rowid, reasoning)
        SELECT id, reasoning_text FROM rulings
    """,
)

#: ``(target user_version, statements, requires_fts)`` triples, in
#: ascending version order.  The runner in :mod:`repro.ledger.store`
#: applies each pending entry inside one transaction and stamps
#: ``PRAGMA user_version`` with the target.
MIGRATIONS: tuple[tuple[int, tuple[str, ...], bool], ...] = (
    (1, _V1_STATEMENTS, False),
    (2, _V2_STATEMENTS, True),
)


def full_ddl() -> str:
    """The complete DDL text, migrations concatenated in order."""
    chunks: list[str] = []
    for version, statements, requires_fts in MIGRATIONS:
        chunks.append(f"-- user_version {version}"
                      + (" (requires fts5)" if requires_fts else ""))
        chunks.extend(" ".join(stmt.split()) for stmt in statements)
    return "\n".join(chunks)


def schema_digest() -> str:
    """SHA-256 over the canonical DDL text.

    Pinned in ``tests/data/golden_ledger_queries.json``: any schema
    change — a new column, a reordered statement, a new migration —
    moves this digest and fails the golden-query fixture loudly, which
    is the cue to regenerate it deliberately.
    """
    return hashlib.sha256(full_ddl().encode("utf-8")).hexdigest()
