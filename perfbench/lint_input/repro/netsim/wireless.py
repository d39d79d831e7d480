"""The wireless broadcast medium for Table 1 rows 3-6.

Radio frames are heard by *every* station and sniffer in range — that
physical fact is what drives the paper's WarDriving analysis.  On a
protected network the payload is encrypted with the network key but the
frame headers stay visible; on an open network everything is in the clear
(the Street View capture).
"""

from __future__ import annotations

import dataclasses

from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.netsim.packet import EncryptedBlob, Packet
from repro.netsim.sniffer import Tap


@dataclasses.dataclass
class _Station:
    """A host joined to the medium, with its radio association."""

    host: Host
    joined_at: float


class WirelessMedium:
    """A shared radio medium: one home's WLAN plus anyone parked outside.

    Args:
        sim: The driving simulator.
        name: Medium label (e.g. ``"home-wlan"``).
        network_key: WPA-style key id; when set, payloads are encrypted on
            the air with this key.  ``None`` models an open network.
        propagation_delay: On-air delay in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network_key: str | None = None,
        propagation_delay: float = 0.002,
    ) -> None:
        self.sim = sim
        self.name = name
        self.network_key = network_key
        self.propagation_delay = propagation_delay
        self._stations: list[_Station] = []
        self._sniffers: list[Tap] = []
        self.frames_sent = 0

    @property
    def encrypted(self) -> bool:
        """Whether frames on this medium carry encrypted payloads."""
        return self.network_key is not None

    def join(self, host: Host) -> None:
        """Associate a host with the medium."""
        self._stations.append(_Station(host=host, joined_at=self.sim.now))
        if self.network_key is not None:
            host.keys.add(self.network_key)

    def add_sniffer(self, tap: Tap) -> None:
        """Park a sniffer in radio range (it need not associate)."""
        self._sniffers.append(tap)

    def remove_sniffer(self, tap: Tap) -> None:
        """Remove a sniffer from radio range."""
        self._sniffers.remove(tap)

    def broadcast(self, packet: Packet, sender: Host) -> None:
        """Transmit a frame: every station and sniffer in range hears it.

        On a protected medium, a plaintext payload is encrypted with the
        network key before it leaves the sender's radio; headers remain
        observable regardless.
        """
        on_air = packet
        if self.network_key is not None and isinstance(packet.payload, str):
            on_air = dataclasses.replace(
                packet,
                payload=EncryptedBlob(
                    plaintext=packet.payload, key_id=self.network_key
                ),
            )
        self.frames_sent += 1
        now = self.sim.now

        for sniffer in self._sniffers:
            sniffer.observe(on_air, now)

        for station in self._stations:
            if station.host is sender:
                continue
            receiver = station.host
            self.sim.schedule(
                self.propagation_delay,
                lambda recv=receiver: self._deliver(recv, on_air),
            )

    @staticmethod
    def _deliver(host: Host, packet: Packet) -> None:
        """Deliver a frame to an associated station's host stack."""
        if packet.dst_ip != host.ip:
            return
        host.received.append(packet)
        handler = host.services.get(packet.dst_port)
        if handler is not None:
            handler(host, packet)
