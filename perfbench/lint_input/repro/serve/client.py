"""A small blocking NDJSON client for the ruling server.

Used by ``repro serve-bench``, the test suite, and CI's smoke job.  One
socket, pipelining-capable: :meth:`ServeClient.send_rule` writes a
request without waiting, :meth:`ServeClient.read_response` reads the
next response line — responses arrive in request order, so a caller that
keeps its own FIFO of request ids can drive the server at depth.

The client never *parses* ruling payloads beyond the envelope: the
differential gate wants the server's ruling dicts re-rendered through
the same canonical encoder the in-process path uses, and anything
smarter here could mask a wire defect.
"""

from __future__ import annotations

import json
import socket
from collections.abc import Sequence
from typing import Any

from repro.serve.protocol import (
    MAX_RESPONSE_LINE_BYTES,
    action_to_dict,
    encode_line,
)


class ServeClient:
    """Blocking newline-delimited-JSON client."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_line_bytes: int = MAX_RESPONSE_LINE_BYTES,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._max_line_bytes = max_line_bytes

    def __enter__(self) -> ServeClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    # -- raw pipelined interface -------------------------------------------------

    def send_line(self, payload: dict) -> None:
        """Write one request line without waiting for the response."""
        self._sock.sendall(encode_line(payload))

    def send_rule(
        self, request_id: object, actions: Sequence[Any]
    ) -> None:
        """Write one ``rule`` request for a batch of actions."""
        self.send_line(
            {
                "op": "rule",
                "id": request_id,
                "actions": [action_to_dict(a) for a in actions],
            }
        )

    def read_response(self) -> dict:
        """Read the next response line (request order is guaranteed)."""
        line = self._reader.readline(self._max_line_bytes + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if len(line) > self._max_line_bytes:
            raise ValueError("response line exceeds framing bound")
        payload = json.loads(line.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("response must be a JSON object")
        return payload

    # -- convenience round trips -------------------------------------------------

    def rule(
        self, actions: Sequence[Any], request_id: object = 0
    ) -> dict:
        """One synchronous rule round trip."""
        self.send_rule(request_id, actions)
        return self.read_response()

    def ping(self) -> dict:
        self.send_line({"op": "ping"})
        return self.read_response()

    def stats(self) -> dict:
        self.send_line({"op": "stats"})
        return self.read_response()
