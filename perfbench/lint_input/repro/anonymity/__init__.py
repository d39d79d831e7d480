"""Anonymity-system substrates: onion routing, a proxy, and F2F P2P.

These are the systems the paper's section IV techniques attack: a Tor-like
onion network and an Anonymizer-like proxy (for the DSSS watermark of
IV.B) and a OneSwarm-like friend-to-friend filesharing overlay (for the
timing attack of IV.A).
"""

from repro.anonymity.mixes import (
    MixStrategy,
    NoMix,
    PoolMix,
    ThresholdMix,
    TimedMix,
)
from repro.anonymity.mixnet import AnonymizerProxy, ProxySession
from repro.anonymity.onion import (
    CellObservation,
    Circuit,
    HiddenService,
    OnionNetwork,
    Relay,
    RotatingChannel,
)
from repro.anonymity.p2p import (
    P2POverlay,
    Peer,
    ResponseRecord,
    TimingParameters,
)

__all__ = [
    "AnonymizerProxy",
    "CellObservation",
    "Circuit",
    "HiddenService",
    "MixStrategy",
    "NoMix",
    "OnionNetwork",
    "P2POverlay",
    "Peer",
    "PoolMix",
    "ProxySession",
    "Relay",
    "ResponseRecord",
    "RotatingChannel",
    "ThresholdMix",
    "TimedMix",
    "TimingParameters",
]
