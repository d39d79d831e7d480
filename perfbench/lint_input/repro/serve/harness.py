"""Run a :class:`~repro.serve.server.RulingServer` on a background thread.

The load generator and the test suite both want a live server without
giving up their own (synchronous) thread.  :class:`ServerThread` hosts
the server's event loop on a daemon thread, waits for the listeners to
bind, and exposes the actual ephemeral addresses; ``stop()`` shuts the
server down from the calling thread and joins.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve.server import RulingServer, ServerConfig


class ServerThread:
    """A context-managed ruling server on its own thread and event loop."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig(port=0, metrics_port=0)
        self.server: RulingServer | None = None
        self.address: tuple[str, int] | None = None
        self.metrics_address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    def __enter__(self) -> ServerThread:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Start the server thread and block until it is listening."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("ruling server failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"ruling server failed to start: {self._error}"
            ) from self._error

    def stop(self) -> None:
        """Stop the server and join its thread (idempotent)."""
        if self._loop is not None and self.server is not None:
            try:
                asyncio.run_coroutine_threadsafe(
                    self.server.stop(), self._loop
                ).result(timeout=30)
            except (RuntimeError, asyncio.CancelledError):
                pass  # loop already torn down
            self._loop = None
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = RulingServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self.address = self.server.address
        self.metrics_address = self.server.metrics_address
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.server.serve_forever()
