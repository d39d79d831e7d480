"""Chain of custody.

A custody log records every hand-off and action performed on an evidence
item, with a content hash at each step.  A gap (missing transfer) or a
hash change between steps breaks the chain, and broken-chain evidence is
challengeable regardless of how lawfully it was first acquired.
"""

from __future__ import annotations

import dataclasses

from repro.evidence.items import EvidenceItem
from repro.storage.hashing import sha256_hex


@dataclasses.dataclass(frozen=True)
class CustodyEntry:
    """One custody event."""

    timestamp: float
    custodian: str
    event: str
    content_hash: str


class BrokenChainError(Exception):
    """Raised when a custody operation is inconsistent with the log."""


class ChainOfCustody:
    """The custody log for one evidence item.

    Example::

        chain = ChainOfCustody(item, custodian="det. rivera", time=10.0)
        chain.transfer("lab tech okafor", time=12.5)
        chain.record_event("imaged drive; verified hash", time=13.0)
        assert chain.intact()
    """

    def __init__(
        self, item: EvidenceItem, custodian: str, time: float
    ) -> None:
        self.item = item
        self._entries: list[CustodyEntry] = [
            CustodyEntry(
                timestamp=time,
                custodian=custodian,
                event="collected",
                content_hash=item.content_hash,
            )
        ]

    @classmethod
    def restore(
        cls,
        item: EvidenceItem,
        entries: "tuple[CustodyEntry, ...] | list[CustodyEntry]",
    ) -> "ChainOfCustody":
        """Rebuild a chain from journaled entries (workflow resume).

        The restored chain continues exactly where the recorded one
        stopped: the same entries, the same current custodian, and the
        same last timestamp for :meth:`_check_time` ordering.

        Raises:
            BrokenChainError: If ``entries`` is empty or out of order.
        """
        if not entries:
            raise BrokenChainError("cannot restore an empty custody log")
        for earlier, later in zip(entries, entries[1:]):
            if later.timestamp < earlier.timestamp:
                raise BrokenChainError(
                    f"restored entry at t={later.timestamp} predates "
                    f"t={earlier.timestamp}"
                )
        chain = cls.__new__(cls)
        chain.item = item
        chain._entries = list(entries)
        return chain

    @property
    def entries(self) -> tuple[CustodyEntry, ...]:
        """The custody log, oldest first."""
        return tuple(self._entries)

    @property
    def current_custodian(self) -> str:
        """Who holds the evidence now."""
        return self._entries[-1].custodian

    def transfer(self, to_custodian: str, time: float) -> None:
        """Hand the evidence to a new custodian.

        Raises:
            BrokenChainError: If the timestamp precedes the last entry.
        """
        self._check_time(time)
        self._entries.append(
            CustodyEntry(
                timestamp=time,
                custodian=to_custodian,
                event=f"transferred from {self.current_custodian}",
                content_hash=sha256_hex(self.item.content),
            )
        )

    def record_event(self, event: str, time: float) -> None:
        """Record an examination or handling event by the current custodian."""
        self._check_time(time)
        self._entries.append(
            CustodyEntry(
                timestamp=time,
                custodian=self.current_custodian,
                event=event,
                content_hash=sha256_hex(self.item.content),
            )
        )

    def _check_time(self, time: float) -> None:
        if time < self._entries[-1].timestamp:
            raise BrokenChainError(
                f"custody event at t={time} predates last entry at "
                f"t={self._entries[-1].timestamp}"
            )

    def intact(self) -> bool:
        """Whether the content hash is unchanged across every entry."""
        expected = self.item.content_hash
        if any(entry.content_hash != expected for entry in self._entries):
            return False
        return self.item.verify_integrity()
