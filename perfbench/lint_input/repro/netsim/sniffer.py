"""Capability-typed network taps.

The paper's statutory split (content vs non-content collection) is enforced
here at the type level, not by courtesy:

* a :class:`PenRegisterTap` or :class:`TrapTraceTap` converts every packet
  to a :class:`~repro.netsim.packet.HeaderRecord` *at observation time* and
  discards the packet — there is no payload anywhere in its storage;
* only a :class:`FullInterceptTap` retains whole packets, and using one is
  what turns a collection into a Title III interception.

Each tap can describe itself as an
:class:`~repro.core.action.InvestigativeAction` so the compliance engine
can rule on the collection before it is attached.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING

from repro.core.action import ConsentFacts, DoctrineFacts, InvestigativeAction
from repro.core.context import EnvironmentContext
from repro.core.enums import Actor, DataKind, Timing
from repro.faults.plan import FaultKind
from repro.netsim.address import IpAddress
from repro.netsim.packet import HeaderRecord, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector


class Tap(abc.ABC):
    """Base class for collection devices attachable to links and media.

    A tap may be given a fault injector, modelling collection-device
    dropout (a pen register that misses packets).  Dropout only ever
    *loses* records — a degraded tap never gains capabilities, so a
    pen/trap tap that misses packets still never stores payload.
    """

    def __init__(
        self,
        name: str,
        target_ip: IpAddress | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.name = name
        #: Restrict collection to packets to/from this address, if set.
        self.target_ip = target_ip
        self.injector = injector
        self._observed_count = 0
        self._dropped_count = 0

    @property
    def observed_count(self) -> int:
        """How many packets matched and were recorded."""
        return self._observed_count

    @property
    def dropped_count(self) -> int:
        """How many matching packets the device missed to dropout."""
        return self._dropped_count

    def observe(self, packet: Packet, timestamp: float) -> None:
        """Called by the link/medium for every passing packet."""
        if not self._matches(packet):
            return
        if self.injector is not None and self.injector.fires(
            FaultKind.TAP_DROPOUT, target=f"tap:{self.name}", time=timestamp
        ):
            self._dropped_count += 1
            return
        self._observed_count += 1
        self._record(packet, timestamp)

    def _matches(self, packet: Packet) -> bool:
        if self.target_ip is None:
            return True
        return self.target_ip in (packet.src_ip, packet.dst_ip)

    @abc.abstractmethod
    def _record(self, packet: Packet, timestamp: float) -> None:
        """Store whatever this tap type is allowed to keep."""

    @property
    @abc.abstractmethod
    def data_kind(self) -> DataKind:
        """The legal category of data this tap collects."""

    def describe_action(
        self,
        actor: Actor,
        context: EnvironmentContext,
        consent: ConsentFacts | None = None,
        doctrine: DoctrineFacts | None = None,
    ) -> InvestigativeAction:
        """Describe this tap as an action for the compliance engine.

        The action is always real-time (taps observe transmission), with
        the data kind fixed by the tap's capability type.
        """
        return InvestigativeAction(
            description=f"attach {type(self).__name__} {self.name!r}",
            actor=actor,
            data_kind=self.data_kind,
            timing=Timing.REAL_TIME,
            context=context,
            consent=consent or ConsentFacts(),
            doctrine=doctrine or DoctrineFacts(),
        )


class PenRegisterTap(Tap):
    """Records *outgoing* addressing information only (18 U.S.C. 3127(3)).

    Outgoing means packets whose source is the target address; with no
    target set, all packets are treated as outgoing.
    """

    def __init__(
        self,
        name: str,
        target_ip: IpAddress | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(name, target_ip, injector)
        self._records: list[HeaderRecord] = []

    @property
    def data_kind(self) -> DataKind:
        return DataKind.NON_CONTENT

    def _matches(self, packet: Packet) -> bool:
        if self.target_ip is None:
            return True
        return packet.src_ip == self.target_ip

    def _record(self, packet: Packet, timestamp: float) -> None:
        self._records.append(packet.header_record(timestamp))

    @property
    def records(self) -> tuple[HeaderRecord, ...]:
        """The collected header records, in arrival order."""
        return tuple(self._records)

    def timestamps(self) -> list[float]:
        """Arrival times only — the input to traffic-rate analysis."""
        return [r.timestamp for r in self._records]


class TrapTraceTap(Tap):
    """Records *incoming* addressing information only (18 U.S.C. 3127(4))."""

    def __init__(
        self,
        name: str,
        target_ip: IpAddress | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(name, target_ip, injector)
        self._records: list[HeaderRecord] = []

    @property
    def data_kind(self) -> DataKind:
        return DataKind.NON_CONTENT

    def _matches(self, packet: Packet) -> bool:
        if self.target_ip is None:
            return True
        return packet.dst_ip == self.target_ip

    def _record(self, packet: Packet, timestamp: float) -> None:
        self._records.append(packet.header_record(timestamp))

    @property
    def records(self) -> tuple[HeaderRecord, ...]:
        """The collected header records, in arrival order."""
        return tuple(self._records)

    def timestamps(self) -> list[float]:
        """Arrival times only — the input to traffic-rate analysis."""
        return [r.timestamp for r in self._records]


@dataclasses.dataclass(frozen=True)
class InterceptedPacket:
    """A full interception: timestamp plus the entire packet."""

    timestamp: float
    packet: Packet


class FullInterceptTap(Tap):
    """Retains entire packets, payload included — a Title III intercept."""

    def __init__(
        self,
        name: str,
        target_ip: IpAddress | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(name, target_ip, injector)
        self._captures: list[InterceptedPacket] = []

    @property
    def data_kind(self) -> DataKind:
        return DataKind.CONTENT

    def _record(self, packet: Packet, timestamp: float) -> None:
        self._captures.append(
            InterceptedPacket(timestamp=timestamp, packet=packet)
        )

    @property
    def captures(self) -> tuple[InterceptedPacket, ...]:
        """The full captures, in arrival order."""
        return tuple(self._captures)

    def payloads(self, key_id: str | None = None) -> list[str]:
        """Readable payloads; encrypted ones are skipped without the key."""
        texts: list[str] = []
        for capture in self._captures:
            try:
                texts.append(capture.packet.payload_text(key_id))
            except PermissionError:
                continue
        return texts
