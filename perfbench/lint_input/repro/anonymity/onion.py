"""A Tor-like onion-routing network (paper section IV.B substrate).

The watermark analysis needs exactly three properties of Tor, all of which
this model preserves:

1. **content opacity** — an observer between hops cannot read payloads or
   link packets to flows by content (layered encryption);
2. **timing transparency** — per-hop forwarding adds random delay but the
   *rate shape* of a flow survives end to end, which is what a DSSS
   watermark exploits;
3. **endpoint observability** — traffic can be observed entering the
   network at the server side and leaving it at a candidate client's ISP,
   the two vantage points of the paper's "situation one".

Observation records are bare ``(timestamp, size)`` pairs: the observer
learns *when* bytes moved, never *what* they said — precisely the
non-content data a pen/trap order covers.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import TYPE_CHECKING

from repro.faults.plan import FaultKind
from repro.netsim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector


def _validate_loss_rate(loss_rate: float) -> None:
    """Reject loss rates outside [0, 1); total loss is a dead circuit."""
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError(f"loss_rate must be in [0, 1): got {loss_rate}")


@dataclasses.dataclass(frozen=True)
class CellObservation:
    """One observed cell: arrival time and size, nothing else."""

    timestamp: float
    size: int


class Relay:
    """One onion relay with a stochastic forwarding delay.

    Args:
        name: Relay label.
        base_delay: Mean processing/queueing delay per cell in seconds.
        jitter: Fractional jitter; actual delay is
            ``base_delay * (1 + Exp(jitter))`` so the tail is one-sided,
            like queueing delay.
    """

    def __init__(
        self,
        name: str,
        base_delay: float = 0.02,
        jitter: float = 0.5,
    ) -> None:
        if base_delay < 0:
            raise ValueError(f"negative base delay: {base_delay}")
        self.name = name
        self.base_delay = base_delay
        self.jitter = jitter
        self.cells_forwarded = 0

    def forwarding_delay(self, rng: random.Random) -> float:
        """Draw this relay's delay for one cell."""
        delay = self.base_delay
        if self.jitter > 0:
            delay += self.base_delay * rng.expovariate(1.0 / self.jitter)
        self.cells_forwarded += 1
        return delay


class Circuit:
    """One client's circuit through entry, middle(s), and exit relays.

    Cells may be injected at the server side (downstream, the direction
    the watermarker modulates) or the client side (upstream).  Each end
    keeps an observation log emulating a tap at that end's ISP.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        client: str,
        server: str,
        relays: list[Relay],
        rng: random.Random,
        link_delay: float = 0.01,
        loss_rate: float = 0.0,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if not relays:
            raise ValueError("a circuit needs at least one relay")
        _validate_loss_rate(loss_rate)
        self.circuit_id = next(self._ids)
        self.sim = sim
        self.client = client
        self.server = server
        self.relays = list(relays)
        self.link_delay = link_delay
        self.loss_rate = loss_rate
        self.injector = injector
        self._rng = rng
        #: Cells observed leaving the server toward the network.
        self.server_side_log: list[CellObservation] = []
        #: Cells observed arriving at the client from the network.
        self.client_side_log: list[CellObservation] = []
        self.cells_sent = 0
        self.cells_lost = 0

    def path_length(self) -> int:
        """Number of relays in the circuit."""
        return len(self.relays)

    def _lost(self) -> bool:
        """Whether this cell is dropped somewhere along the path.

        Two independent sources: the circuit's uniform ``loss_rate``, and
        injected relay churn — a relay leaving the consensus mid-flow,
        which real Tor circuits experience far more burstily than uniform
        loss models.
        """
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.cells_lost += 1
            return True
        if self.injector is not None:
            # The target names the endpoints, not the process-global
            # circuit id, so replaying a seed reproduces the injection
            # log byte for byte.
            if self.injector.fires(
                FaultKind.RELAY_CHURN,
                target=f"circuit:{self.client}->{self.server}",
                time=self.sim.now,
            ):
                self.cells_lost += 1
                return True
        return False

    def send_downstream(self, size: int = 512) -> None:
        """Inject one cell at the server, bound for the client, now."""
        now = self.sim.now
        self.server_side_log.append(CellObservation(timestamp=now, size=size))
        self.cells_sent += 1
        if self._lost():
            return
        total = self.link_delay  # server -> exit
        for relay in reversed(self.relays):
            total += relay.forwarding_delay(self._rng) + self.link_delay
        self.sim.schedule(
            total,
            lambda: self.client_side_log.append(
                CellObservation(timestamp=self.sim.now, size=size)
            ),
        )

    def send_upstream(self, size: int = 512) -> None:
        """Inject one cell at the client, bound for the server, now."""
        now = self.sim.now
        self.client_side_log.append(CellObservation(timestamp=now, size=size))
        self.cells_sent += 1
        if self._lost():
            return
        total = self.link_delay
        for relay in self.relays:
            total += relay.forwarding_delay(self._rng) + self.link_delay
        self.sim.schedule(
            total,
            lambda: self.server_side_log.append(
                CellObservation(timestamp=self.sim.now, size=size)
            ),
        )

    def client_arrival_times(self) -> list[float]:
        """Timestamps of cells delivered to the client."""
        return [obs.timestamp for obs in self.client_side_log]

    def server_departure_times(self) -> list[float]:
        """Timestamps of cells leaving the server."""
        return [obs.timestamp for obs in self.server_side_log]


class OnionNetwork:
    """A population of relays from which circuits are built.

    Args:
        sim: The driving simulator.
        n_relays: Number of relays in the network.
        seed: Seed for relay selection and forwarding jitter.
        base_delay: Mean per-relay forwarding delay.
        jitter: Per-relay delay jitter fraction.
        link_delay: Inter-hop propagation delay.
    """

    def __init__(
        self,
        sim: Simulator,
        n_relays: int = 20,
        seed: int = 0,
        base_delay: float = 0.02,
        jitter: float = 0.5,
        link_delay: float = 0.01,
        loss_rate: float = 0.0,
        injector: "FaultInjector | None" = None,
    ) -> None:
        if n_relays < 1:
            raise ValueError("need at least one relay")
        _validate_loss_rate(loss_rate)
        self.sim = sim
        self._rng = random.Random(seed)
        self.link_delay = link_delay
        self.loss_rate = loss_rate
        self.injector = injector
        self.relays = [
            Relay(f"relay-{i}", base_delay=base_delay, jitter=jitter)
            for i in range(n_relays)
        ]
        self.circuits: list[Circuit] = []

    def build_circuit(
        self, client: str, server: str, n_hops: int = 3
    ) -> Circuit:
        """Build a circuit through ``n_hops`` distinct random relays.

        Raises:
            ValueError: If the network has fewer than ``n_hops`` relays.
        """
        if n_hops > len(self.relays):
            raise ValueError(
                f"cannot pick {n_hops} distinct relays from "
                f"{len(self.relays)}"
            )
        chosen = self._rng.sample(self.relays, n_hops)
        circuit = Circuit(
            sim=self.sim,
            client=client,
            server=server,
            relays=chosen,
            rng=self._rng,
            link_delay=self.link_delay,
            loss_rate=self.loss_rate,
            injector=self.injector,
        )
        self.circuits.append(circuit)
        return circuit


class RotatingChannel:
    """A client whose traffic hops between circuits over time.

    Tor rotates circuits periodically; a flow watermark embedded across a
    rotation sees its network delay change abruptly when the path
    switches, which stresses the detector's single-offset assumption.
    The channel exposes the same ``send_downstream``/``sim`` interface as
    a circuit, switching the underlying circuit every
    ``rotation_interval`` seconds of simulation time.
    """

    def __init__(
        self,
        circuits: list[Circuit],
        rotation_interval: float,
    ) -> None:
        if not circuits:
            raise ValueError("at least one circuit is required")
        if rotation_interval <= 0:
            raise ValueError("rotation_interval must be positive")
        first = circuits[0]
        if any(c.client != first.client for c in circuits):
            raise ValueError("all circuits must serve the same client")
        self.circuits = list(circuits)
        self.rotation_interval = rotation_interval
        self.sim = first.sim
        self.rotations = 0
        self._last_index = 0

    def _current(self) -> Circuit:
        index = int(self.sim.now / self.rotation_interval) % len(
            self.circuits
        )
        if index != self._last_index:
            self.rotations += 1
            self._last_index = index
        return self.circuits[index]

    def send_downstream(self, size: int = 512) -> None:
        """Send on whichever circuit is active right now."""
        self._current().send_downstream(size)

    def client_arrival_times(self) -> list[float]:
        """Merged client-side arrivals across every circuit."""
        merged = [
            t for circuit in self.circuits
            for t in circuit.client_arrival_times()
        ]
        return sorted(merged)


class HiddenService:
    """A server reachable only through the onion network (Table 1 scene 12).

    The hidden service is, for SCA purposes, a provider: investigating it
    means compelling a provider, which needs process.  This class exists
    so examples and the investigation pipeline can model that scene; the
    content store is deliberately simple.
    """

    def __init__(self, network: OnionNetwork, name: str) -> None:
        self.network = network
        self.name = name
        self.accounts: dict[str, list[str]] = {}

    def register_account(self, account: str) -> None:
        """Create a user account on the hidden service."""
        self.accounts.setdefault(account, [])

    def store(self, account: str, item: str) -> None:
        """Store an item (e.g. a download record) under an account."""
        if account not in self.accounts:
            raise KeyError(f"unknown account: {account!r}")
        self.accounts[account].append(item)

    def connect(self, client: str, n_hops: int = 3) -> Circuit:
        """Open a circuit from a client to this hidden service."""
        return self.network.build_circuit(client, self.name, n_hops=n_hops)
