"""The append-only run journal and its crash model.

Every record is one canonical JSON line (sorted keys, no whitespace),
flushed and fsynced before the engine proceeds — a journal is only
useful if the record for a step provably hit disk before the next step
ran.  Three record kinds exist:

``run-start``
    Workflow identity (spec digest), run seed, subject fingerprint, and
    the intake custody entries.  A resume refuses a journal whose
    identity does not match what it was asked to resume.
``step``
    One step's terminal status for this run: completed (with its output
    artifacts inlined base64, so resume rehydrates them without
    re-executing), skipped, or failed.  The record also carries the
    custody-entry delta, obs span ids, and the fault injector's
    cumulative draw counts — the bookmark that lets a resumed run
    fast-forward a fresh injector to the exact RNG stream positions of
    the interrupted one.
``run-complete``
    Final digests (report, artifact set, custody chain) and the
    suppression outcome.

Crashes are injected *at record boundaries*: a :class:`Journal` built
with ``crash_after=N`` raises :class:`WorkflowCrash` immediately after
the Nth record is durably written.  That makes "kill after every journal
record, resume, compare" an exhaustive sweep of the recovery surface.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
from pathlib import Path

from repro.evidence.custody import CustodyEntry
from repro.workflow.artifacts import Artifact

#: Bumped when the record schema changes incompatibly.
JOURNAL_VERSION = 1


class WorkflowCrash(RuntimeError):
    """The injected crash: the process dies at a record boundary."""


class JournalError(Exception):
    """The journal is unreadable, inconsistent, or mismatched."""


class Journal:
    """Append-only JSONL sink with an optional injected crash point.

    Args:
        path: Journal file; ``None`` keeps records in memory only
            (useful for tests that never resume).
        crash_after: Raise :class:`WorkflowCrash` once this many records
            exist *in total* (pre-existing records from a resumed file
            count toward the total).
        existing: How many records the file already holds.
    """

    def __init__(
        self,
        path: Path | None,
        crash_after: int | None = None,
        existing: int = 0,
    ) -> None:
        self.path = path
        self.crash_after = crash_after
        self.records_written = existing
        self._memory: list[dict[str, object]] = []

    def append(self, record: dict[str, object]) -> None:
        """Durably append one record, then honour the crash point.

        The crash fires *after* the write lands — the record survives,
        the process does not — which is the worst case resume has to
        handle and therefore the one worth injecting.
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        else:
            self._memory.append(record)
        self.records_written += 1
        if (
            self.crash_after is not None
            and self.records_written >= self.crash_after
        ):
            raise WorkflowCrash(
                f"injected crash after journal record "
                f"{self.records_written}"
            )

    @property
    def memory_records(self) -> tuple[dict[str, object], ...]:
        """Records held by a memory-only journal."""
        return tuple(self._memory)


def load_journal(path: Path) -> list[dict[str, object]]:
    """Read a journal back, tolerating a torn final line.

    A crash mid-write can leave a truncated last line; that line is
    discarded (its step will simply re-run).  A malformed line anywhere
    *else* means corruption, which is an error — silently skipping
    interior records would fabricate history.

    Raises:
        JournalError: On a missing file or interior corruption.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise JournalError(f"cannot read journal {path}: {error}") from error
    records: list[dict[str, object]] = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if index == len(lines) - 1:
                break
            raise JournalError(
                f"corrupt journal record at line {index + 1} of {path}"
            ) from error
    return records


# -- serialization helpers ----------------------------------------------------


def artifact_to_record(artifact: Artifact) -> dict[str, object]:
    """JSON-ready form of an artifact, content included."""
    return {
        "kind": artifact.kind,
        "sha256": artifact.sha256,
        "content_b64": base64.b64encode(artifact.content).decode("ascii"),
        "meta": [list(pair) for pair in artifact.meta],
        "produced_by": artifact.produced_by,
    }


def artifact_from_record(record: dict[str, object]) -> Artifact:
    """Rehydrate an artifact; verifies the recorded hash.

    Raises:
        JournalError: If the decoded content does not match the recorded
            SHA-256 — a corrupt journal must not quietly resurrect
            corrupt evidence.
    """
    content = base64.b64decode(str(record["content_b64"]))
    artifact = Artifact(
        kind=str(record["kind"]),
        content=content,
        meta=tuple(
            (str(key), str(value))
            for key, value in record.get("meta", [])  # type: ignore[union-attr]
        ),
        produced_by=str(record.get("produced_by", "")),
    )
    if artifact.sha256 != record["sha256"]:
        raise JournalError(
            f"artifact {artifact.kind!r} content hash mismatch on resume: "
            f"journal says {record['sha256']}, content is {artifact.sha256}"
        )
    return artifact


def custody_to_record(entry: CustodyEntry) -> dict[str, object]:
    """JSON-ready form of one custody entry."""
    return {
        "t": entry.timestamp,
        "custodian": entry.custodian,
        "event": entry.event,
        "hash": entry.content_hash,
    }


def custody_from_record(record: dict[str, object]) -> CustodyEntry:
    """Rehydrate one custody entry."""
    return CustodyEntry(
        timestamp=float(record["t"]),  # type: ignore[arg-type]
        custodian=str(record["custodian"]),
        event=str(record["event"]),
        content_hash=str(record["hash"]),
    )


@dataclasses.dataclass(frozen=True)
class RunStart:
    """Parsed view of a ``run-start`` record."""

    workflow: str
    spec_digest: str
    seed: int
    subject_id: str
    subject_fingerprint_sha256: str
    fault_plan_digest: str
    custody: tuple[CustodyEntry, ...]

    @classmethod
    def parse(cls, record: dict[str, object]) -> RunStart:
        """Parse and validate a run-start record.

        Raises:
            JournalError: On the wrong record kind or journal version.
        """
        if record.get("kind") != "run-start":
            raise JournalError(
                f"journal does not start with run-start: {record.get('kind')!r}"
            )
        if record.get("journal_version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal version {record.get('journal_version')!r} is not "
                f"{JOURNAL_VERSION}"
            )
        return cls(
            workflow=str(record["workflow"]),
            spec_digest=str(record["spec_digest"]),
            seed=int(record["seed"]),  # type: ignore[arg-type]
            subject_id=str(record["subject_id"]),
            subject_fingerprint_sha256=str(
                record["subject_fingerprint_sha256"]
            ),
            fault_plan_digest=str(record.get("fault_plan_digest", "")),
            custody=tuple(
                custody_from_record(entry)
                for entry in record.get("custody", [])  # type: ignore[union-attr]
            ),
        )
