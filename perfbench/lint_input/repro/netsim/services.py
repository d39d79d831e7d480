"""Application services that run on simulated hosts.

Small, protocol-free services sufficient for the paper's scenarios: a web
server (public or membership-gated, scene 11), a chat room (scene 17), and
a generic file server used by the storage examples.
"""

from __future__ import annotations

import dataclasses

from repro.netsim.node import Host
from repro.netsim.packet import Packet


class WebServer:
    """A web server with public pages and optionally a members-only area.

    Request payload convention: ``"GET <path>"`` or
    ``"GET <path> AUTH <member>"``.
    """

    PORT = 80

    def __init__(self, host: Host, public: bool = True) -> None:
        self.host = host
        self.public = public
        self.pages: dict[str, str] = {}
        self.members: set[str] = set()
        self.access_log: list[tuple[float, str, str]] = []
        host.register_service(self.PORT, self._handle)

    def publish(self, path: str, content: str) -> None:
        """Publish a page at a path."""
        self.pages[path] = content

    def add_member(self, member: str) -> None:
        """Grant a member access to a non-public server."""
        self.members.add(member)

    def _handle(self, host: Host, packet: Packet) -> str | None:
        try:
            text = packet.payload_text()
        except PermissionError:
            return "400 encrypted request"
        parts = text.split()
        if len(parts) < 2 or parts[0] != "GET":
            return "400 bad request"
        path = parts[1]
        member = parts[3] if len(parts) >= 4 and parts[2] == "AUTH" else None
        self.access_log.append((host.sim.now, str(packet.src_ip), path))
        if not self.public and member not in self.members:
            return "403 members only"
        content = self.pages.get(path)
        if content is None:
            return "404 not found"
        return f"200 {content}"


@dataclasses.dataclass(frozen=True)
class ChatMessage:
    """One message posted to a chat room."""

    timestamp: float
    sender: str
    text: str


class ChatRoom:
    """A public chat room: anyone may join, read, and post (scene 17).

    The room is deliberately a *public* forum — everything posted here is
    knowingly exposed, which is why collecting it needs no process.
    """

    PORT = 6667

    def __init__(self, host: Host, name: str = "#public") -> None:
        self.host = host
        self.name = name
        self.messages: list[ChatMessage] = []
        self.participants: set[str] = set()
        host.register_service(self.PORT, self._handle)

    def _handle(self, host: Host, packet: Packet) -> str | None:
        try:
            text = packet.payload_text()
        except PermissionError:
            return None
        if text.startswith("JOIN "):
            self.participants.add(text[5:])
            return f"joined {self.name}"
        if text.startswith("POST "):
            __, sender, body = text.split(" ", 2)
            self.messages.append(
                ChatMessage(timestamp=host.sim.now, sender=sender, text=body)
            )
            return "ok"
        if text == "READ":
            return "\n".join(f"{m.sender}: {m.text}" for m in self.messages)
        return "unknown command"


class FileServer:
    """A trivial file server; request ``"FETCH <name>"`` returns contents."""

    PORT = 2049

    def __init__(self, host: Host) -> None:
        self.host = host
        self.files: dict[str, str] = {}
        self.fetch_count = 0
        host.register_service(self.PORT, self._handle)

    def put(self, name: str, contents: str) -> None:
        """Store a file on the server."""
        self.files[name] = contents

    def _handle(self, host: Host, packet: Packet) -> str | None:
        try:
            text = packet.payload_text()
        except PermissionError:
            return "400 encrypted request"
        if not text.startswith("FETCH "):
            return "400 bad request"
        name = text[6:]
        contents = self.files.get(name)
        if contents is None:
            return "404 not found"
        self.fetch_count += 1
        return f"200 {contents}"
