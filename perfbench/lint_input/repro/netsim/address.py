"""Address types and allocators for the network simulator.

Addresses are small immutable value types so packets can be hashed,
compared, and logged cheaply.  Allocators hand out unique addresses and,
for IPs, remember which subscriber held which address when — the record an
ISP produces in response to a subpoena (paper section III.A.1(a)).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit style link-layer address, rendered like ``02:00:00:00:00:2a``."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**48:
            raise ValueError(f"MAC out of range: {self.value}")

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))


@dataclasses.dataclass(frozen=True, order=True)
class IpAddress:
    """An IPv4-style address, rendered dotted-quad."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**32:
            raise ValueError(f"IP out of range: {self.value}")

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"

    def in_subnet(self, network: "IpAddress", prefix_len: int) -> bool:
        """Whether this address falls inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"bad prefix length: {prefix_len}")
        if prefix_len == 0:
            return True
        mask = ~((1 << (32 - prefix_len)) - 1) & 0xFFFFFFFF
        return (self.value & mask) == (network.value & mask)


class MacAllocator:
    """Hands out unique MAC addresses with a locally-administered prefix."""

    _BASE = 0x020000000000

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> MacAddress:
        """Allocate the next unused MAC address."""
        mac = MacAddress(self._BASE + self._next)
        self._next += 1
        return mac


@dataclasses.dataclass(frozen=True)
class LeaseRecord:
    """One IP lease: which subscriber held an address over which interval.

    ``end`` is ``None`` while the lease is active.  These records are what
    a subpoena to the ISP turns into a subscriber identity.
    """

    ip: IpAddress
    subscriber_id: str
    start: float
    end: float | None = None

    def active_at(self, time: float) -> bool:
        """Whether the lease covered the given instant."""
        if time < self.start:
            return False
        return self.end is None or time < self.end


class IpAllocator:
    """Allocates IPs from a subnet and keeps the lease history."""

    def __init__(self, network: IpAddress, prefix_len: int = 24) -> None:
        if not 0 < prefix_len < 31:
            raise ValueError(f"bad prefix length: {prefix_len}")
        self._network = network
        self._prefix_len = prefix_len
        self._capacity = (1 << (32 - prefix_len)) - 2  # minus net/broadcast
        self._next_host = 1
        self._leases: list[LeaseRecord] = []
        self._active: dict[IpAddress, int] = {}  # ip -> index into leases

    @property
    def leases(self) -> tuple[LeaseRecord, ...]:
        """Complete lease history, oldest first."""
        return tuple(self._leases)

    def allocate(self, subscriber_id: str, time: float) -> IpAddress:
        """Lease the next free address to a subscriber.

        Raises:
            RuntimeError: If the subnet is exhausted.
        """
        if self._next_host > self._capacity:
            raise RuntimeError("subnet exhausted")
        ip = IpAddress(self._network.value + self._next_host)
        self._next_host += 1
        self._leases.append(
            LeaseRecord(ip=ip, subscriber_id=subscriber_id, start=time)
        )
        self._active[ip] = len(self._leases) - 1
        return ip

    def release(self, ip: IpAddress, time: float) -> None:
        """End the active lease on an address.

        Raises:
            KeyError: If the address has no active lease.
        """
        index = self._active.pop(ip)
        old = self._leases[index]
        self._leases[index] = dataclasses.replace(old, end=time)

    def subscriber_for(self, ip: IpAddress, time: float) -> str | None:
        """Who held an address at a given time (the subpoena answer)."""
        for lease in self._leases:
            if lease.ip == ip and lease.active_at(time):
                return lease.subscriber_id
        return None
