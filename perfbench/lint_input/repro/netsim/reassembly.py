"""Application-session reconstruction from full intercepts.

The paper's court-order example (section II.A): "using a packet-sniffer on
an ISP's router to collect all packets coming from a particular IP address
to reconstruct an AIM session."  This module is that reconstruction step:
it groups a :class:`~repro.netsim.sniffer.FullInterceptTap`'s captures into
bidirectional conversations keyed by their address/port pairs and renders
each as an ordered transcript.

Reconstruction requires *content*, so it only works on full intercepts —
a pen register's header records cannot be reassembled into anything, which
is exactly the statutory point.
"""

from __future__ import annotations

import dataclasses

from repro.netsim.address import IpAddress
from repro.netsim.sniffer import FullInterceptTap, InterceptedPacket


@dataclasses.dataclass(frozen=True)
class SessionKey:
    """Canonical (direction-free) identifier of a conversation."""

    endpoint_a: tuple[str, int]
    endpoint_b: tuple[str, int]
    protocol: str

    @classmethod
    def for_packet(cls, capture: InterceptedPacket) -> "SessionKey":
        packet = capture.packet
        one = (str(packet.src_ip), packet.src_port)
        two = (str(packet.dst_ip), packet.dst_port)
        first, second = sorted((one, two))
        return cls(endpoint_a=first, endpoint_b=second, protocol=packet.protocol)

    def __str__(self) -> str:
        a = f"{self.endpoint_a[0]}:{self.endpoint_a[1]}"
        b = f"{self.endpoint_b[0]}:{self.endpoint_b[1]}"
        return f"{self.protocol} {a} <-> {b}"


@dataclasses.dataclass(frozen=True)
class SessionEvent:
    """One reconstructed message within a session."""

    timestamp: float
    sender: str
    readable: bool
    text: str
    size: int


@dataclasses.dataclass(frozen=True)
class Session:
    """A reconstructed bidirectional conversation.

    Attributes:
        key: The conversation's canonical identifier.
        events: Messages in capture order.
    """

    key: SessionKey
    events: tuple[SessionEvent, ...]

    @property
    def n_messages(self) -> int:
        """Total messages in the session."""
        return len(self.events)

    @property
    def readable_fraction(self) -> float:
        """Fraction of messages whose content could be read."""
        if not self.events:
            return 0.0
        return sum(e.readable for e in self.events) / len(self.events)

    def transcript(self) -> str:
        """Human-readable transcript of the session."""
        lines = [f"=== {self.key} ({self.n_messages} messages) ==="]
        for event in self.events:
            body = event.text if event.readable else f"<encrypted, {event.size}B>"
            lines.append(f"[{event.timestamp:9.3f}] {event.sender}: {body}")
        return "\n".join(lines)


class SessionReassembler:
    """Reconstructs conversations from a full intercept's captures.

    Args:
        key_id: Optional decryption key for encrypted payloads (e.g. the
            WLAN key recovered from a consenting owner); without it,
            encrypted messages appear as opaque sized events.
    """

    def __init__(self, key_id: str | None = None) -> None:
        self.key_id = key_id

    def reassemble(self, tap: FullInterceptTap) -> list[Session]:
        """Group a tap's captures into ordered sessions.

        Returns:
            Sessions ordered by their first capture time.
        """
        grouped: dict[SessionKey, list[InterceptedPacket]] = {}
        order: list[SessionKey] = []
        for capture in tap.captures:
            key = SessionKey.for_packet(capture)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(capture)

        sessions = []
        for key in order:
            events = tuple(
                self._event_for(capture) for capture in grouped[key]
            )
            sessions.append(Session(key=key, events=events))
        return sessions

    def session_for(
        self, tap: FullInterceptTap, ip: IpAddress
    ) -> list[Session]:
        """Sessions involving one address — the paper's 'particular IP'."""
        wanted = str(ip)
        return [
            session
            for session in self.reassemble(tap)
            if wanted in (session.key.endpoint_a[0], session.key.endpoint_b[0])
        ]

    def _event_for(self, capture: InterceptedPacket) -> SessionEvent:
        packet = capture.packet
        sender = f"{packet.src_ip}:{packet.src_port}"
        try:
            text = packet.payload_text(self.key_id)
            readable = True
        except PermissionError:
            text = ""
            readable = False
        return SessionEvent(
            timestamp=capture.timestamp,
            sender=sender,
            readable=readable,
            text=text,
            size=packet.size,
        )
