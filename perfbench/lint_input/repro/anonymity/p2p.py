"""A OneSwarm-like friend-to-friend anonymous filesharing overlay.

Substrate for the paper's section IV.A analysis (the Prusty/Levine/
Liberatore CCS 2011 investigation).  The overlay reproduces the properties
their timing attack exploits:

* queries flood hop-by-hop over *friend* edges only, so an investigator
  who joins sees nothing but its direct neighbours;
* a peer that **has** the file answers after a short lookup delay;
* a peer that **forwards** adds a deliberately randomized per-hop
  forwarding delay (OneSwarm's timing defence), and the response returns
  along the reverse path, accumulating delay at every hop;
* consequently the response-time distribution of a *source* neighbour is
  separated from that of a *forwarder* neighbour — the distinguishing
  signal of the attack — and everything the investigator measures is
  traffic the protocol voluntarily sends it (no legal process needed).
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from repro.netsim.engine import Simulator


@dataclasses.dataclass(frozen=True)
class TimingParameters:
    """Delay model for the overlay, loosely following OneSwarm.

    All times are in seconds; each delay is drawn uniformly from its
    ``(lo, hi)`` range.

    Attributes:
        link_latency: One-way friend-link latency range.
        source_lookup: Delay for a peer to look up a file it has and
            answer.
        forward_delay: OneSwarm's artificial per-hop query-forwarding
            delay range (the timing defence).
        relay_response: Per-hop delay when relaying a response back.
    """

    link_latency: tuple[float, float] = (0.010, 0.050)
    source_lookup: tuple[float, float] = (0.020, 0.060)
    forward_delay: tuple[float, float] = (0.150, 0.300)
    relay_response: tuple[float, float] = (0.005, 0.015)

    def draw(self, rng: random.Random, which: str) -> float:
        """Draw one delay by range name."""
        lo, hi = getattr(self, which)
        return rng.uniform(lo, hi)


@dataclasses.dataclass(frozen=True)
class ResponseRecord:
    """One response observed by the querying peer.

    Attributes:
        neighbor: The *direct* neighbour that handed over the response
            (all the investigator can see in a F2F overlay).
        file_id: The file the response answers for.
        query_sent_at: When the query left the origin.
        arrived_at: When the response reached the origin.
        trial: Trial index the response belongs to.
    """

    neighbor: str
    file_id: str
    query_sent_at: float
    arrived_at: float
    trial: int

    @property
    def response_time(self) -> float:
        """Round-trip time from query emission to response arrival."""
        return self.arrived_at - self.query_sent_at


class Peer:
    """One overlay participant."""

    def __init__(self, name: str, files: set[str] | None = None) -> None:
        self.name = name
        self.files: set[str] = set(files or ())
        #: friend name -> one-way link latency in seconds
        self.friends: dict[str, float] = {}
        self.queries_seen: set[int] = set()
        self.queries_forwarded = 0
        self.responses_sent = 0

    def has_file(self, file_id: str) -> bool:
        """Whether this peer is a source for the file."""
        return file_id in self.files


class P2POverlay:
    """The friend-to-friend overlay network.

    Example::

        overlay = P2POverlay(seed=42)
        investigator = overlay.add_peer("le")
        suspect = overlay.add_peer("suspect", files={"contraband.jpg"})
        overlay.befriend("le", "suspect")
        records = overlay.query("le", "contraband.jpg", trials=10)
    """

    _query_ids = itertools.count(1)

    def __init__(
        self,
        seed: int = 0,
        timing: TimingParameters | None = None,
        sim: Simulator | None = None,
    ) -> None:
        self.sim = sim or Simulator()
        self._rng = random.Random(seed)
        self.timing = timing or TimingParameters()
        self.peers: dict[str, Peer] = {}

    def add_peer(self, name: str, files: set[str] | None = None) -> Peer:
        """Add a peer, optionally seeding it with files."""
        if name in self.peers:
            raise ValueError(f"duplicate peer: {name!r}")
        peer = Peer(name, files)
        self.peers[name] = peer
        return peer

    def befriend(
        self, a: str, b: str, latency: float | None = None
    ) -> None:
        """Create a friend edge with a (possibly drawn) link latency."""
        if a == b:
            raise ValueError("a peer cannot befriend itself")
        if latency is None:
            latency = self.timing.draw(self._rng, "link_latency")
        self.peers[a].friends[b] = latency
        self.peers[b].friends[a] = latency

    def random_topology(
        self,
        n_peers: int,
        mean_degree: float = 4.0,
        source_fraction: float = 0.1,
        file_id: str = "target-file",
        prefix: str = "peer",
    ) -> list[str]:
        """Build a random connected friend graph.

        Args:
            n_peers: Number of peers to create.
            mean_degree: Average number of friends per peer.
            source_fraction: Fraction of peers seeded with ``file_id``.
            file_id: The file sources hold.
            prefix: Peer-name prefix.

        Returns:
            Names of the peers that are sources of ``file_id``.
        """
        names = [f"{prefix}-{i}" for i in range(n_peers)]
        n_sources = max(1, round(n_peers * source_fraction))
        source_names = set(self._rng.sample(names, n_sources))
        for name in names:
            files = {file_id} if name in source_names else None
            self.add_peer(name, files)
        # A random spanning chain guarantees connectivity, then extra
        # random edges raise the mean degree.
        shuffled = names[:]
        self._rng.shuffle(shuffled)
        for left, right in zip(shuffled, shuffled[1:]):
            self.befriend(left, right)
        target_edges = int(n_peers * mean_degree / 2)
        attempts = 0
        edges = n_peers - 1
        while edges < target_edges and attempts < 20 * target_edges:
            attempts += 1
            a, b = self._rng.sample(names, 2)
            if b not in self.peers[a].friends:
                self.befriend(a, b)
                edges += 1
        return sorted(source_names)

    def query(
        self,
        origin: str,
        file_id: str,
        ttl: int = 5,
        trials: int = 1,
        inter_trial_gap: float = 5.0,
    ) -> list[ResponseRecord]:
        """Flood queries from ``origin`` and collect response records.

        Args:
            origin: The querying peer (the investigator).
            file_id: The file searched for.
            ttl: Maximum forwarding hops.
            trials: Number of independent query rounds.
            inter_trial_gap: Simulated seconds between rounds.

        Returns:
            Every response that reached the origin, tagged with the direct
            neighbour that delivered it.
        """
        if origin not in self.peers:
            raise KeyError(f"unknown peer: {origin!r}")
        records: list[ResponseRecord] = []
        for trial in range(trials):
            self.sim.schedule(
                trial * inter_trial_gap,
                lambda t=trial: self._start_query(
                    origin, file_id, ttl, t, records
                ),
            )
        self.sim.run()
        return records

    # -- internal mechanics ----------------------------------------------------

    def _start_query(
        self,
        origin: str,
        file_id: str,
        ttl: int,
        trial: int,
        records: list[ResponseRecord],
    ) -> None:
        query_id = next(self._query_ids)
        sent_at = self.sim.now
        origin_peer = self.peers[origin]
        origin_peer.queries_seen.add(query_id)
        for friend, latency in origin_peer.friends.items():
            self.sim.schedule(
                latency,
                lambda f=friend: self._handle_query(
                    peer_name=f,
                    query_id=query_id,
                    file_id=file_id,
                    ttl=ttl,
                    path=(origin, f),
                    sent_at=sent_at,
                    trial=trial,
                    records=records,
                ),
            )

    def _handle_query(
        self,
        peer_name: str,
        query_id: int,
        file_id: str,
        ttl: int,
        path: tuple[str, ...],
        sent_at: float,
        trial: int,
        records: list[ResponseRecord],
    ) -> None:
        peer = self.peers[peer_name]
        if query_id in peer.queries_seen:
            return
        peer.queries_seen.add(query_id)

        if peer.has_file(file_id):
            lookup = self.timing.draw(self._rng, "source_lookup")
            self.sim.schedule(
                lookup,
                lambda: self._send_response(
                    path, file_id, sent_at, trial, records
                ),
            )
            peer.responses_sent += 1
            return

        if ttl <= 1:
            return
        forward_delay = self.timing.draw(self._rng, "forward_delay")
        for friend, latency in peer.friends.items():
            if friend in path:
                continue
            peer.queries_forwarded += 1
            self.sim.schedule(
                forward_delay + latency,
                lambda f=friend: self._handle_query(
                    peer_name=f,
                    query_id=query_id,
                    file_id=file_id,
                    ttl=ttl - 1,
                    path=path + (f,),
                    sent_at=sent_at,
                    trial=trial,
                    records=records,
                ),
            )

    def _send_response(
        self,
        path: tuple[str, ...],
        file_id: str,
        sent_at: float,
        trial: int,
        records: list[ResponseRecord],
    ) -> None:
        """Send a response back along the reverse of ``path``."""
        origin = path[0]
        neighbor = path[1]  # the direct neighbour the origin will see
        total = 0.0
        # Walk the reverse path: link latency each hop, plus relay
        # processing at each intermediate peer.
        for index in range(len(path) - 1, 0, -1):
            upstream = path[index - 1]
            here = path[index]
            total += self.peers[here].friends[upstream]
            if index != 1:
                total += self.timing.draw(self._rng, "relay_response")
        self.sim.schedule(
            total,
            lambda: records.append(
                ResponseRecord(
                    neighbor=neighbor,
                    file_id=file_id,
                    query_sent_at=sent_at,
                    arrived_at=self.sim.now,
                    trial=trial,
                )
            ),
        )

    # -- ground truth and measurement helpers -----------------------------------

    def neighbors_of(self, name: str) -> list[str]:
        """Direct friends of a peer."""
        return sorted(self.peers[name].friends)

    def is_source(self, name: str, file_id: str) -> bool:
        """Ground truth: does the peer hold the file?"""
        return self.peers[name].has_file(file_id)

    def distance_to_source(self, name: str, file_id: str) -> int | None:
        """Ground truth: hops from a peer to the nearest source of a file.

        0 means the peer holds the file itself; ``None`` means no source
        is reachable over friend edges.
        """
        if self.is_source(name, file_id):
            return 0
        seen = {name}
        frontier = [name]
        distance = 0
        while frontier:
            distance += 1
            next_frontier: list[str] = []
            for current in frontier:
                for friend in self.peers[current].friends:
                    if friend in seen:
                        continue
                    if self.is_source(friend, file_id):
                        return distance
                    seen.add(friend)
                    next_frontier.append(friend)
            frontier = next_frontier
        return None

    def measure_rtt(self, a: str, b: str) -> float:
        """Protocol-level ping between friends (2x link latency).

        The investigator may measure this openly — it is ordinary
        protocol behaviour, not an interception.
        """
        latency = self.peers[a].friends.get(b)
        if latency is None:
            raise ValueError(f"{a!r} and {b!r} are not friends")
        return 2.0 * latency
