"""Discrete-event network simulator substrate.

Provides the physical world the paper's legal analysis runs against:
layered packets whose content/non-content split is structural, wired links
and wireless broadcast media, ISPs with SCA-gated record disclosure, and
capability-typed taps (pen register vs full intercept).
"""

from repro.netsim.address import (
    IpAddress,
    IpAllocator,
    LeaseRecord,
    MacAddress,
    MacAllocator,
)
from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.isp import IspNode, StoredItem, SubscriberRecord
from repro.netsim.link import Link
from repro.netsim.minimization import (
    MinimizationStats,
    MinimizingInterceptTap,
    keyword_pertinence,
)
from repro.netsim.node import Host, Network, Node, Router
from repro.netsim.packet import EncryptedBlob, HeaderRecord, Packet
from repro.netsim.reassembly import (
    Session,
    SessionEvent,
    SessionKey,
    SessionReassembler,
)
from repro.netsim.services import ChatMessage, ChatRoom, FileServer, WebServer
from repro.netsim.sniffer import (
    FullInterceptTap,
    InterceptedPacket,
    PenRegisterTap,
    Tap,
    TrapTraceTap,
)
from repro.netsim.wireless import WirelessMedium

__all__ = [
    "ChatMessage",
    "ChatRoom",
    "EncryptedBlob",
    "EventHandle",
    "FileServer",
    "FullInterceptTap",
    "HeaderRecord",
    "Host",
    "InterceptedPacket",
    "IpAddress",
    "IpAllocator",
    "IspNode",
    "LeaseRecord",
    "Link",
    "MacAddress",
    "MacAllocator",
    "MinimizationStats",
    "MinimizingInterceptTap",
    "Network",
    "Node",
    "Packet",
    "PenRegisterTap",
    "Router",
    "Session",
    "SessionEvent",
    "SessionKey",
    "SessionReassembler",
    "Simulator",
    "StoredItem",
    "SubscriberRecord",
    "Tap",
    "TrapTraceTap",
    "WebServer",
    "WirelessMedium",
    "keyword_pertinence",
]
