"""Layered packets with legally meaningful views.

The statutory scheme splits every packet into *content* (payload — Title
III territory) and *non-content* (link/IP/transport headers, sizes —
Pen/Trap territory).  The packet model makes that split structural:

* :class:`HeaderRecord` is what a pen register may lawfully produce — it
  is constructed *without* any reference to the payload;
* :meth:`Packet.payload_text` is the content view, and raises if the
  payload is encrypted and the caller lacks the key.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.netsim.address import IpAddress, MacAddress

_packet_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class EncryptedBlob:
    """An opaque ciphertext; plaintext retrievable only with the key id.

    The simulator does not model real cryptography — it models the *legal*
    property of encryption: observers without the key can see that bytes
    exist (and how many) but not what they say.
    """

    plaintext: str
    key_id: str

    def decrypt(self, key_id: str) -> str:
        """Recover the plaintext with the correct key.

        Raises:
            PermissionError: If the key does not match.
        """
        if key_id != self.key_id:
            raise PermissionError("wrong decryption key")
        return self.plaintext

    def __len__(self) -> int:
        return len(self.plaintext)

    def __repr__(self) -> str:  # never leak plaintext through repr
        return f"EncryptedBlob(<{len(self.plaintext)} bytes>, key_id={self.key_id!r})"


@dataclasses.dataclass(frozen=True)
class Packet:
    """One simulated packet with link, network, and transport headers.

    Attributes:
        src_mac / dst_mac: Link-layer addresses.
        src_ip / dst_ip: Network-layer addresses.
        src_port / dst_port: Transport-layer ports.
        protocol: Transport protocol name ("tcp" or "udp").
        payload: Application payload — plaintext ``str`` or an
            :class:`EncryptedBlob`.
        packet_id: Unique id for tracing through the simulator.
        flow_id: Optional application flow label (used by the watermark
            experiments to group packets into flows).
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    src_ip: IpAddress
    dst_ip: IpAddress
    src_port: int
    dst_port: int
    protocol: str = "tcp"
    payload: str | EncryptedBlob = ""
    packet_id: int = dataclasses.field(default_factory=lambda: next(_packet_ids))
    flow_id: str | None = None

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port < 65536:
                raise ValueError(f"port out of range: {port}")
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol: {self.protocol!r}")

    @property
    def size(self) -> int:
        """Approximate wire size: fixed header overhead plus payload length."""
        return 54 + len(self.payload)

    @property
    def payload_encrypted(self) -> bool:
        """Whether the payload is an opaque ciphertext."""
        return isinstance(self.payload, EncryptedBlob)

    def payload_text(self, key_id: str | None = None) -> str:
        """The content view of the packet.

        Args:
            key_id: Decryption key for encrypted payloads.

        Returns:
            The plaintext payload.

        Raises:
            PermissionError: If the payload is encrypted and no (or the
                wrong) key is supplied.
        """
        if isinstance(self.payload, EncryptedBlob):
            if key_id is None:
                raise PermissionError("payload is encrypted")
            return self.payload.decrypt(key_id)
        return self.payload

    def header_record(self, timestamp: float) -> "HeaderRecord":
        """The non-content view of the packet (what a pen register sees)."""
        return HeaderRecord(
            timestamp=timestamp,
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            protocol=self.protocol,
            size=self.size,
            packet_id=self.packet_id,
        )

    def reply_template(self, payload: str | EncryptedBlob = "") -> "Packet":
        """A packet with source/destination swapped, for responses."""
        return Packet(
            src_mac=self.dst_mac,
            dst_mac=self.src_mac,
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
            payload=payload,
            flow_id=self.flow_id,
        )


@dataclasses.dataclass(frozen=True)
class HeaderRecord:
    """Addressing and size information only — no payload, by construction.

    This is the record type a :class:`~repro.netsim.sniffer.PenRegisterTap`
    emits; it cannot leak content because it never holds any.
    """

    timestamp: float
    src_mac: MacAddress
    dst_mac: MacAddress
    src_ip: IpAddress
    dst_ip: IpAddress
    src_port: int
    dst_port: int
    protocol: str
    size: int
    packet_id: int
