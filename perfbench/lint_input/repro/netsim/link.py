"""Point-to-point wired links.

A link connects exactly two nodes, delays packets by a (possibly jittered)
latency, serializes them at a finite bandwidth, and shows every passing
packet to its attached taps at the moment of transmission — the vantage
point a collection device at an ISP or gateway would have.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.faults.plan import FaultKind
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.netsim.sniffer import Tap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector
    from repro.netsim.node import Node


class Link:
    """A bidirectional wired link between two nodes.

    Args:
        sim: The simulator driving delivery events.
        a: One endpoint.
        b: The other endpoint.
        latency: One-way propagation delay in seconds.
        bandwidth: Bytes per second; ``None`` means infinite.
        jitter: Fractional jitter; each transit is delayed by
            ``latency * (1 + U(0, jitter))``.
        rng: Random source for jitter (pass a seeded one for determinism).
        injector: Optional fault injector; enables link flap, in-transit
            drop, duplication, and reordering on this link.
    """

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        latency: float = 0.01,
        bandwidth: float | None = None,
        jitter: float = 0.0,
        rng: random.Random | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.jitter = jitter
        self.injector = injector
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self._rng = rng or random.Random(0)
        self._taps: list[Tap] = []
        #: Earliest time each direction's transmitter is free again, used
        #: to serialize packets at finite bandwidth.
        self._free_at: dict[int, float] = {id(a): 0.0, id(b): 0.0}
        a.attach_link(self)
        b.attach_link(self)

    def attach_tap(self, tap: Tap) -> None:
        """Attach a collection device to this link."""
        self._taps.append(tap)

    def detach_tap(self, tap: Tap) -> None:
        """Remove a previously attached tap."""
        self._taps.remove(tap)

    @property
    def taps(self) -> tuple[Tap, ...]:
        """Currently attached taps."""
        return tuple(self._taps)

    def other_end(self, node: "Node") -> "Node":
        """The endpoint opposite ``node``.

        Raises:
            ValueError: If ``node`` is not an endpoint of this link.
        """
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of this link")

    def _label(self) -> str:
        """Stable label for fault targeting and injection logs."""
        return f"link:{self.a.name}-{self.b.name}"

    def transmit(self, packet: Packet, sender: "Node") -> None:
        """Send a packet from one endpoint toward the other.

        Taps see the packet at the moment transmission begins; delivery is
        scheduled after serialization plus (jittered) propagation delay.

        With a fault injector attached the transit may misbehave:

        * **flap** — the link is momentarily down; the packet never
          leaves the sender, so not even a tap sees it;
        * **drop** — the packet is lost in transit *after* the taps'
          vantage point (taps observe, the receiver never does);
        * **duplicate** — the receiver gets the packet twice;
        * **reorder** — this packet is held back by the spec's ``param``
          seconds, letting later traffic overtake it.
        """
        receiver = self.other_end(sender)
        now = self.sim.now
        label = self._label()

        if self.injector is not None and self.injector.fires(
            FaultKind.LINK_FLAP, target=label, time=now
        ):
            self.packets_dropped += 1
            return

        for tap in self._taps:
            tap.observe(packet, now)

        if self.injector is not None and self.injector.fires(
            FaultKind.LINK_DROP, target=label, time=now
        ):
            self.packets_dropped += 1
            return

        serialization = 0.0
        if self.bandwidth is not None:
            serialization = packet.size / self.bandwidth
        start = max(now, self._free_at[id(sender)])
        self._free_at[id(sender)] = start + serialization

        delay = self.latency
        if self.jitter > 0:
            delay *= 1.0 + self._rng.uniform(0.0, self.jitter)
        if self.injector is not None and self.injector.fires(
            FaultKind.LINK_REORDER, target=label, time=now
        ):
            delay += self.injector.magnitude(
                FaultKind.LINK_REORDER, target=label
            )
        arrival_offset = (start - now) + serialization + delay

        self.sim.schedule(
            arrival_offset, lambda: receiver.receive(packet, self)
        )
        if self.injector is not None and self.injector.fires(
            FaultKind.LINK_DUPLICATE, target=label, time=now
        ):
            self.packets_duplicated += 1
            self.sim.schedule(
                arrival_offset + delay,
                lambda: receiver.receive(packet, self),
            )
