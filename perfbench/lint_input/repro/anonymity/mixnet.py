"""A single-hop anonymizing proxy (the paper's "Anonymizer").

Weaker than onion routing — one relay, one operator — but identical from
the watermark's point of view: contents are hidden, timing survives.  The
proxy also acts as an ISP for SCA purposes (Table 1 scene 14).
"""

from __future__ import annotations

import dataclasses
import random

from repro.anonymity.onion import CellObservation
from repro.netsim.engine import Simulator


@dataclasses.dataclass
class ProxySession:
    """One client's session through the proxy.

    Both ends keep ``(timestamp, size)`` observation logs, mirroring taps
    at the server's uplink and the client's ISP.
    """

    client: str
    server: str
    server_side_log: list[CellObservation] = dataclasses.field(
        default_factory=list
    )
    client_side_log: list[CellObservation] = dataclasses.field(
        default_factory=list
    )


class AnonymizerProxy:
    """A single-hop proxy relaying traffic with stochastic delay.

    Args:
        sim: The driving simulator.
        name: Proxy label.
        base_delay: Mean forwarding delay.
        jitter: One-sided exponential jitter fraction.
        seed: RNG seed.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "anonymizer",
        base_delay: float = 0.03,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.base_delay = base_delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self.sessions: list[ProxySession] = []
        self.cells_relayed = 0

    def open_session(self, client: str, server: str) -> ProxySession:
        """Open a relayed session between a client and a server."""
        session = ProxySession(client=client, server=server)
        self.sessions.append(session)
        return session

    def _delay(self) -> float:
        delay = self.base_delay
        if self.jitter > 0:
            delay += self.base_delay * self._rng.expovariate(1.0 / self.jitter)
        return delay

    def send_downstream(self, session: ProxySession, size: int = 512) -> None:
        """Relay one cell server -> client through the proxy, now."""
        now = self.sim.now
        session.server_side_log.append(
            CellObservation(timestamp=now, size=size)
        )
        self.cells_relayed += 1
        self.sim.schedule(
            self._delay(),
            lambda: session.client_side_log.append(
                CellObservation(timestamp=self.sim.now, size=size)
            ),
        )

    def send_upstream(self, session: ProxySession, size: int = 512) -> None:
        """Relay one cell client -> server through the proxy, now."""
        now = self.sim.now
        session.client_side_log.append(
            CellObservation(timestamp=now, size=size)
        )
        self.cells_relayed += 1
        self.sim.schedule(
            self._delay(),
            lambda: session.server_side_log.append(
                CellObservation(timestamp=self.sim.now, size=size)
            ),
        )
