"""Persistent legal ledger: rulings, dockets, custody, suppression.

The compliance engine, investigation pipeline, and workflow engine are
deterministic but, on their own, amnesiac — every ruling, docket, and
custody chain dies with the process.  This package gives them durable,
queryable, integrity-checked storage::

    from repro.ledger import Ledger
    from repro.core import ComplianceEngine, RulingCache

    with Ledger("case.db") as ledger:
        engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
        engine.evaluate_many(actions)      # every fresh ruling persisted
    # -- in a later process --
    with Ledger("case.db") as ledger:
        engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
        engine.prime_from_ledger()         # warm cache before first ruling

SQLite-backed, zero dependencies; the schema sticks to the portable SQL
core so Postgres is a drop-in (``docs/ledger.md``).  The CLI front end
is ``repro ledger query/stats/prime/vacuum/populate``.
"""

from repro.ledger.queries import (
    RulingRow,
    citation_histogram,
    process_histogram,
    rulings_citing,
    search_reasoning,
    suppression_histogram,
)
from repro.ledger.schema import MIGRATIONS, SCHEMA_VERSION, schema_digest
from repro.ledger.serialize import (
    canonical_json,
    citation_keys,
    custody_entry_from_dict,
    custody_entry_to_dict,
    fingerprint_from_json,
    fingerprint_to_json,
    instrument_from_dict,
    instrument_to_dict,
    reasoning_text,
    ruling_from_dict,
    ruling_from_json,
    ruling_to_dict,
    ruling_to_json,
)
from repro.ledger.store import (
    CustodyRecord,
    Ledger,
    LedgerError,
    LedgerStats,
    SuppressionRecord,
)

__all__ = [
    "CustodyRecord",
    "Ledger",
    "LedgerError",
    "LedgerStats",
    "MIGRATIONS",
    "RulingRow",
    "SCHEMA_VERSION",
    "SuppressionRecord",
    "canonical_json",
    "citation_histogram",
    "citation_keys",
    "custody_entry_from_dict",
    "custody_entry_to_dict",
    "fingerprint_from_json",
    "fingerprint_to_json",
    "instrument_from_dict",
    "instrument_to_dict",
    "process_histogram",
    "reasoning_text",
    "ruling_from_dict",
    "ruling_from_json",
    "ruling_to_dict",
    "ruling_to_json",
    "rulings_citing",
    "schema_digest",
    "search_reasoning",
    "suppression_histogram",
]
