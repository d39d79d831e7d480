"""Nodes: hosts, routers, and the network that wires them together.

Routing is static: :meth:`Network.build_routes` computes shortest paths
(hop count, then latency) and installs per-destination next-hop tables, so
packet forwarding during simulation is a dictionary lookup.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.netsim.address import (
    IpAddress,
    IpAllocator,
    MacAddress,
    MacAllocator,
)
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import EncryptedBlob, Packet

#: A service handler: receives the host and the packet, optionally returns
#: a reply payload that the host sends back to the packet's source.
ServiceHandler = Callable[["Host", Packet], str | None]


class Node:
    """Base class for anything attachable to links."""

    def __init__(self, name: str, sim: Simulator) -> None:
        self.name = name
        self.sim = sim
        self.links: list[Link] = []
        #: Next-hop table: destination IP -> link to forward on.
        self.routes: dict[IpAddress, Link] = {}

    def attach_link(self, link: Link) -> None:
        """Register a link endpoint (called by :class:`Link`)."""
        self.links.append(link)

    def receive(self, packet: Packet, link: Link) -> None:
        """Handle an arriving packet; subclasses override."""
        raise NotImplementedError

    def forward(self, packet: Packet) -> bool:
        """Forward a packet toward its destination.

        Returns:
            ``True`` if a route existed and the packet was sent.
        """
        link = self.routes.get(packet.dst_ip)
        if link is None:
            return False
        link.transmit(packet, self)
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Router(Node):
    """A pure forwarding node."""

    def __init__(self, name: str, sim: Simulator) -> None:
        super().__init__(name, sim)
        self.forwarded_count = 0

    def receive(self, packet: Packet, link: Link) -> None:
        if self.forward(packet):
            self.forwarded_count += 1


class Host(Node):
    """An endpoint with addresses, services, and a receive log.

    Services are registered per destination port; a handler may return a
    reply payload which the host sends back automatically.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        mac: MacAddress,
        ip: IpAddress,
    ) -> None:
        super().__init__(name, sim)
        self.mac = mac
        self.ip = ip
        self.services: dict[int, ServiceHandler] = {}
        self.received: list[Packet] = []
        #: Keys this host can decrypt payloads with.
        self.keys: set[str] = set()

    def register_service(self, port: int, handler: ServiceHandler) -> None:
        """Install a handler for packets arriving on a port."""
        self.services[port] = handler

    def receive(self, packet: Packet, link: Link) -> None:
        if packet.dst_ip != self.ip:
            # Hosts do not forward traffic that is not theirs.
            return
        self.received.append(packet)
        handler = self.services.get(packet.dst_port)
        if handler is None:
            return
        reply_payload = handler(self, packet)
        if reply_payload is not None:
            self.send(packet.reply_template(reply_payload))

    def send(self, packet: Packet) -> bool:
        """Send a packet using this host's route table.

        Returns:
            ``True`` if a route existed.
        """
        return self.forward(packet)

    def send_to(
        self,
        dst: "Host",
        payload: str | EncryptedBlob,
        src_port: int = 40000,
        dst_port: int = 80,
        protocol: str = "tcp",
        flow_id: str | None = None,
    ) -> Packet:
        """Build and send a packet to another host.

        Returns:
            The packet sent (useful for matching replies in tests).

        Raises:
            RuntimeError: If no route to the destination exists.
        """
        packet = Packet(
            src_mac=self.mac,
            dst_mac=dst.mac,
            src_ip=self.ip,
            dst_ip=dst.ip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
            payload=payload,
            flow_id=flow_id,
        )
        if not self.send(packet):
            raise RuntimeError(f"{self.name}: no route to {dst.ip}")
        return packet


class Network:
    """Builds a topology and installs static shortest-path routes.

    Example::

        net = Network(seed=7)
        alice = net.add_host("alice")
        isp = net.add_router("isp")
        bob = net.add_host("bob")
        net.connect(alice, isp, latency=0.005)
        net.connect(isp, bob, latency=0.010)
        net.build_routes()
        alice.send_to(bob, "hello")
        net.sim.run()
    """

    def __init__(self, seed: int = 0, subnet: int = 10 << 24) -> None:
        import random

        self.sim = Simulator()
        self._rng = random.Random(seed)
        self._macs = MacAllocator()
        self._ips = IpAllocator(IpAddress(subnet), prefix_len=16)
        self.nodes: dict[str, Node] = {}

    def add_host(self, name: str) -> Host:
        """Create a host with fresh MAC and IP addresses."""
        self._check_name(name)
        host = Host(
            name,
            self.sim,
            mac=self._macs.allocate(),
            ip=self._ips.allocate(subscriber_id=name, time=self.sim.now),
        )
        self.nodes[name] = host
        return host

    def add_router(self, name: str) -> Router:
        """Create a forwarding-only router."""
        self._check_name(name)
        router = Router(name, self.sim)
        self.nodes[name] = router
        return router

    def add_node(self, node: Node) -> None:
        """Register an externally constructed node (e.g. an ISP)."""
        self._check_name(node.name)
        self.nodes[node.name] = node

    def _check_name(self, name: str) -> None:
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name!r}")

    def connect(
        self,
        a: Node,
        b: Node,
        latency: float = 0.01,
        bandwidth: float | None = None,
        jitter: float = 0.0,
    ) -> Link:
        """Wire two nodes together."""
        return Link(
            self.sim,
            a,
            b,
            latency=latency,
            bandwidth=bandwidth,
            jitter=jitter,
            rng=self._rng,
        )

    def build_routes(self) -> None:
        """Compute shortest paths and install next-hop tables everywhere.

        Paths minimize total latency.  Every host IP becomes a routable
        destination on every node.
        """
        import heapq

        hosts = [n for n in self.nodes.values() if isinstance(n, Host)]
        for source in self.nodes.values():
            distances: dict[int, float] = {id(source): 0.0}
            first_link: dict[int, Link] = {}
            heap: list[tuple[float, int, Node, Link | None]] = [
                (0.0, 0, source, None)
            ]
            counter = 1
            while heap:
                dist, _, node, via = heapq.heappop(heap)
                if dist > distances.get(id(node), float("inf")):
                    continue
                for link in node.links:
                    neighbor = link.other_end(node)
                    new_dist = dist + link.latency
                    if new_dist < distances.get(id(neighbor), float("inf")):
                        distances[id(neighbor)] = new_dist
                        entry_link = via if via is not None else link
                        first_link[id(neighbor)] = entry_link
                        heapq.heappush(
                            heap, (new_dist, counter, neighbor, entry_link)
                        )
                        counter += 1
            for host in hosts:
                if host is source:
                    continue
                link = first_link.get(id(host))
                if link is not None:
                    source.routes[host.ip] = link

    def ip_allocator(self) -> IpAllocator:
        """The network-wide allocator (lease history for subpoenas)."""
        return self._ips
