"""An ISP node: subscribers, records, and SCA-gated disclosure.

The ISP is where most of the paper's statutory machinery becomes concrete:

* it keeps basic subscriber information, transactional logs, and stored
  content — the three 2703 tiers;
* :meth:`IspNode.compelled_disclosure` enforces the tier table: a subpoena
  gets subscriber info, a 2703(d) court order gets transactional records,
  only a warrant gets content;
* :meth:`IspNode.voluntary_disclosure` enforces 2702 (public providers may
  not volunteer customer data to the government outside the exceptions);
* :meth:`IspNode.attach_tap` enforces the real-time statutes: a pen/trap
  tap needs a court order, a full intercept needs a Title III order.
"""

from __future__ import annotations

import dataclasses

from repro.core.enums import DataKind, ProcessKind
from repro.core.errors import InsufficientProcess, LegalViolation
from repro.core.statutes.sca import (
    COMPELLED_DISCLOSURE_TIERS,
    may_voluntarily_disclose,
)
from repro.netsim.address import IpAddress, IpAllocator
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host, Router
from repro.netsim.packet import HeaderRecord, Packet
from repro.netsim.sniffer import FullInterceptTap, Tap


@dataclasses.dataclass(frozen=True)
class SubscriberRecord:
    """Basic subscriber information — the 2703(c)(2) subpoena tier."""

    subscriber_id: str
    name: str
    street_address: str
    payment_info: str = "card-on-file"


@dataclasses.dataclass(frozen=True)
class StoredItem:
    """One piece of stored customer content held by the provider."""

    subscriber_id: str
    stored_at: float
    content: str
    retrieved: bool = False


class IspNode(Router):
    """A router that is also a service provider with customer records.

    Args:
        name: Node name.
        sim: The driving simulator.
        subnet: Base address for the ISP's customer subnet.
        serves_public: Whether this provider offers service to the public
            (controls the 2702 voluntary-disclosure rule).
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        subnet: IpAddress | None = None,
        serves_public: bool = True,
    ) -> None:
        super().__init__(name, sim)
        self.serves_public = serves_public
        self._subscribers: dict[str, SubscriberRecord] = {}
        self._allocator = IpAllocator(
            subnet if subnet is not None else IpAddress(172 << 24 | 16 << 16),
            prefix_len=16,
        )
        self._transaction_log: list[HeaderRecord] = []
        self._stored: list[StoredItem] = []
        self._log_transactions = True

    # -- subscriber management ------------------------------------------------

    def register_subscriber(
        self, subscriber_id: str, name: str, street_address: str
    ) -> SubscriberRecord:
        """Open an account and record basic subscriber information."""
        if subscriber_id in self._subscribers:
            raise ValueError(f"duplicate subscriber: {subscriber_id!r}")
        record = SubscriberRecord(
            subscriber_id=subscriber_id,
            name=name,
            street_address=street_address,
        )
        self._subscribers[subscriber_id] = record
        return record

    def lease_ip(self, subscriber_id: str) -> IpAddress:
        """Assign an address to a subscriber, recording the lease."""
        if subscriber_id not in self._subscribers:
            raise KeyError(f"unknown subscriber: {subscriber_id!r}")
        return self._allocator.allocate(subscriber_id, self.sim.now)

    def store_content(self, subscriber_id: str, content: str) -> None:
        """Store customer content (mail, files) at the provider."""
        if subscriber_id not in self._subscribers:
            raise KeyError(f"unknown subscriber: {subscriber_id!r}")
        self._stored.append(
            StoredItem(
                subscriber_id=subscriber_id,
                stored_at=self.sim.now,
                content=content,
            )
        )

    # -- traffic handling -----------------------------------------------------

    def receive(self, packet: Packet, link: Link) -> None:
        if self._log_transactions:
            self._transaction_log.append(packet.header_record(self.sim.now))
        super().receive(packet, link)

    # -- compelled disclosure (18 U.S.C. 2703) ----------------------------------

    def compelled_disclosure(
        self, data_kind: DataKind, process_held: ProcessKind
    ) -> list:
        """Disclose records under compulsion, enforcing the 2703 tiers.

        Args:
            data_kind: Which tier of data is demanded.
            process_held: The process the demanding officer holds.

        Returns:
            The responsive records (subscriber records, header records, or
            stored-content items).

        Raises:
            InsufficientProcess: If ``process_held`` is below the tier's
                requirement.
        """
        required = COMPELLED_DISCLOSURE_TIERS.get(data_kind)
        if required is None:
            raise LegalViolation(
                f"2703 has no tier for data kind {data_kind.value!r}"
            )
        if not process_held.satisfies(required):
            raise InsufficientProcess(
                required=required,
                held=process_held,
                what=f"compelling {data_kind.value} from {self.name}",
            )
        if data_kind is DataKind.SUBSCRIBER_INFO:
            return list(self._subscribers.values())
        if data_kind in (DataKind.TRANSACTIONAL_RECORD, DataKind.NON_CONTENT):
            return list(self._transaction_log)
        return list(self._stored)

    def subscriber_for_ip(
        self, ip: IpAddress, time: float, process_held: ProcessKind
    ) -> SubscriberRecord | None:
        """The subpoena workflow of section III.A.1(a).

        Given an IP observed in criminal traffic, identify the subscriber
        who held it at the relevant time.  Requires at least a subpoena.
        """
        if not process_held.satisfies(ProcessKind.SUBPOENA):
            raise InsufficientProcess(
                required=ProcessKind.SUBPOENA,
                held=process_held,
                what=f"identifying the subscriber behind {ip}",
            )
        subscriber_id = self._allocator.subscriber_for(ip, time)
        if subscriber_id is None:
            return None
        return self._subscribers.get(subscriber_id)

    # -- voluntary disclosure (18 U.S.C. 2702) ----------------------------------

    def voluntary_disclosure(
        self,
        data_kind: DataKind,
        to_government: bool,
        emergency: bool = False,
        user_consented: bool = False,
        protects_provider: bool = False,
    ) -> list:
        """Volunteer records, enforcing the 2702 rule.

        Raises:
            LegalViolation: If 2702 forbids the disclosure.
        """
        allowed = may_voluntarily_disclose(
            serves_public=self.serves_public,
            data_kind=data_kind,
            to_government=to_government,
            emergency=emergency,
            user_consented=user_consented,
            protects_provider=protects_provider,
        )
        if not allowed:
            raise LegalViolation(
                f"2702 forbids {self.name} voluntarily disclosing "
                f"{data_kind.value} to the government"
            )
        if data_kind is DataKind.SUBSCRIBER_INFO:
            return list(self._subscribers.values())
        if data_kind in (DataKind.TRANSACTIONAL_RECORD, DataKind.NON_CONTENT):
            return list(self._transaction_log)
        return list(self._stored)

    # -- real-time taps (Pen/Trap and Title III) --------------------------------

    def attach_tap(
        self,
        link: Link,
        tap: Tap,
        process_held: ProcessKind,
        provider_own_monitoring: bool = False,
    ) -> None:
        """Attach a collection device at the ISP, enforcing process.

        A pen/trap tap needs a court order; a full intercept needs a
        Title III order.  The provider may tap its own network for
        operations and self-protection without any order (3121(b),
        2511(2)(a)(i)).

        Raises:
            InsufficientProcess: If the officer's process is too weak.
            ValueError: If the link does not touch this ISP.
        """
        if self not in (link.a, link.b):
            raise ValueError(f"link does not touch {self.name}")
        if not provider_own_monitoring:
            required = (
                ProcessKind.WIRETAP_ORDER
                if isinstance(tap, FullInterceptTap)
                else ProcessKind.COURT_ORDER
            )
            if not process_held.satisfies(required):
                raise InsufficientProcess(
                    required=required,
                    held=process_held,
                    what=f"attaching {type(tap).__name__} at {self.name}",
                )
        link.attach_tap(tap)

    # -- introspection ---------------------------------------------------------

    @property
    def transaction_log_size(self) -> int:
        """Number of header records in the transactional log."""
        return len(self._transaction_log)

    @property
    def stored_item_count(self) -> int:
        """Number of stored content items held for customers."""
        return len(self._stored)

    def authenticated_retrieval(self, subscriber_id: str) -> list[StoredItem]:
        """Retrieve an account's items as its (apparent) owner.

        This is the account-holder path, not compulsion: the provider
        cannot distinguish a caller holding valid credentials from the
        subscriber, so no 2703 tier applies here.  Callers are responsible
        for the legality of *holding* the credentials (Table 1 scene 20).
        """
        if subscriber_id not in self._subscribers:
            raise KeyError(f"unknown subscriber: {subscriber_id!r}")
        return [
            item for item in self._stored
            if item.subscriber_id == subscriber_id
        ]

    def connect_customer(self, host: Host, link: Link) -> None:
        """Convenience: note that a host reaches the net through this ISP."""
        # Routing is installed by Network.build_routes(); this records the
        # administrative relationship only.
        if host.name not in self._subscribers:
            self.register_subscriber(
                host.name, name=host.name.title(), street_address="unknown"
            )
