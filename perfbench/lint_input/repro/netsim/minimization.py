"""Title III minimization.

A wiretap order does not license vacuuming everything: 18 U.S.C. 2518(5)
requires interception "be conducted in such a way as to minimize the
interception of communications not otherwise subject to interception".
The :class:`MinimizingInterceptTap` enforces that at the capture layer —
a pertinence filter decides, per packet, whether content may be retained;
non-pertinent traffic is counted but only its *header* is kept.  The tap
reports its minimization statistics, the numbers a court reviews when the
defense challenges the intercept's execution.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.core.enums import DataKind
from repro.netsim.address import IpAddress
from repro.netsim.packet import HeaderRecord, Packet
from repro.netsim.sniffer import InterceptedPacket, Tap

#: Pertinence predicate: may this packet's *content* be retained?
PertinenceFilter = Callable[[Packet], bool]


@dataclasses.dataclass(frozen=True)
class MinimizationStats:
    """How the intercept was executed.

    Attributes:
        total_observed: Packets that passed the tap.
        content_retained: Packets whose content was kept (pertinent).
        header_only: Packets minimized to header records.
    """

    total_observed: int
    content_retained: int
    header_only: int

    @property
    def minimization_rate(self) -> float:
        """Fraction of observed traffic minimized to headers."""
        if self.total_observed == 0:
            return 0.0
        return self.header_only / self.total_observed


class MinimizingInterceptTap(Tap):
    """A Title III intercept that honors the minimization duty.

    Args:
        name: Tap label.
        pertinence: Predicate deciding whether a packet's content relates
            to the offense named in the order.  Everything else is
            spot-checked (header only).
        target_ip: Optional address filter, as with other taps.
    """

    def __init__(
        self,
        name: str,
        pertinence: PertinenceFilter,
        target_ip: IpAddress | None = None,
    ) -> None:
        super().__init__(name, target_ip)
        self._pertinence = pertinence
        self._captures: list[InterceptedPacket] = []
        self._minimized: list[HeaderRecord] = []

    @property
    def data_kind(self) -> DataKind:
        return DataKind.CONTENT

    def _record(self, packet: Packet, timestamp: float) -> None:
        if self._pertinence(packet):
            self._captures.append(
                InterceptedPacket(timestamp=timestamp, packet=packet)
            )
        else:
            self._minimized.append(packet.header_record(timestamp))

    @property
    def captures(self) -> tuple[InterceptedPacket, ...]:
        """Retained (pertinent) full captures."""
        return tuple(self._captures)

    @property
    def minimized_headers(self) -> tuple[HeaderRecord, ...]:
        """Header records of minimized (non-pertinent) traffic."""
        return tuple(self._minimized)

    def stats(self) -> MinimizationStats:
        """The execution statistics a reviewing court examines."""
        return MinimizationStats(
            total_observed=self.observed_count,
            content_retained=len(self._captures),
            header_only=len(self._minimized),
        )


def keyword_pertinence(keywords: list[str]) -> PertinenceFilter:
    """A pertinence filter matching offense keywords in readable payloads.

    Encrypted payloads are treated as non-pertinent (they cannot be
    spot-checked), mirroring the practice of minimizing unintelligible
    traffic and seeking after-the-fact authorization to decrypt.
    """
    if not keywords:
        raise ValueError("at least one keyword is required")
    lowered = [keyword.lower() for keyword in keywords]

    def pertinent(packet: Packet) -> bool:
        try:
            text = packet.payload_text().lower()
        except PermissionError:
            return False
        return any(keyword in text for keyword in lowered)

    return pertinent
