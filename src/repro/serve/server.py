"""The asyncio ruling server: NDJSON batches in, ordered rulings out.

Architecture
------------

One event loop, three kinds of tasks:

* **Connection handlers** parse NDJSON requests, split each ``rule``
  batch by fingerprint hash into per-shard sub-batches, and enqueue the
  sub-batches on the owning shards' queues.  Responses are *streamed
  back in request order per connection*: the handler reserves the
  response slot (a future appended to the connection's ordered pipeline)
  before dispatch, so pipelined requests can complete out of order
  internally without ever reordering on the wire.
* **Shard workers** (one per shard) drain their queue, coalescing
  everything currently enqueued into a single ``evaluate_many`` call on
  the shard's private engine — under load, sub-batches from many
  connections merge into one batched evaluation that feeds one private
  cache.  No shard ever touches another shard's cache or engine, so the
  hot path has no locks; partitioning *is* the synchronization.
* **A metrics listener** answers HTTP ``GET /metrics`` with the
  :mod:`repro.obs` registry's Prometheus text exposition (per-shard
  cache counters bound as callback gauges, in-flight batches, ruling
  and round-trip latency histograms) and ``GET /healthz`` for liveness.

Backpressure is per connection and bounded: at most
``max_pending_batches`` rule batches may be in flight per connection.
Policy ``queue`` stops reading from the socket until a slot frees (the
kernel's TCP window then pushes back on the client); policy ``shed``
answers immediately with ``{"ok": false, "error": "overloaded",
"shed": true}`` and never dispatches the batch.

Telemetry deliberately uses the metrics registry *without*
``obs.enable()``: a long-running server must not accumulate spans
forever, and the registry (counters, gauges, histograms) is bounded
state read out at render time.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.core.cache import DEFAULT_CACHE_SIZE
from repro.core.schema import canonical_json
from repro.ledger.serialize import ruling_to_dict
from repro.ledger.store import Ledger
from repro.obs import OBS, bind_ruling_cache, clock
from repro.serve.protocol import (
    MAX_BATCH_ACTIONS,
    MAX_LINE_BYTES,
    ProtocolError,
    action_from_dict,
    decode_line,
    encode_line,
)
from repro.serve.shard import ShardRouter

_SHED_POLICIES = ("queue", "shed")


@dataclasses.dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune.

    Attributes:
        host: Bind address for both listeners.
        port: NDJSON port (0 picks an ephemeral port).
        metrics_port: HTTP ``/metrics`` port (0 picks an ephemeral port).
        n_shards: Number of private cache+engine partitions.
        cache_size: Per-shard LRU capacity.
        max_pending_batches: Per-connection bound on in-flight ``rule``
            batches — the backpressure knob.
        policy: ``"queue"`` (pause socket reads when full) or ``"shed"``
            (reject with an overload error).
        ledger_path: Optional SQLite ledger; fresh rulings persist here.
        prime: Warm every shard's cache from the ledger at startup.
        max_batch_actions: Per-request action cap.
        max_line_bytes: NDJSON framing bound.
    """

    host: str = "127.0.0.1"
    port: int = 7341
    metrics_port: int = 7342
    n_shards: int = 4
    cache_size: int = DEFAULT_CACHE_SIZE
    max_pending_batches: int = 64
    policy: str = "queue"
    ledger_path: str | None = None
    prime: bool = False
    max_batch_actions: int = MAX_BATCH_ACTIONS
    max_line_bytes: int = MAX_LINE_BYTES

    def __post_init__(self) -> None:
        if self.policy not in _SHED_POLICIES:
            raise ValueError(
                f"policy must be one of {_SHED_POLICIES}: {self.policy!r}"
            )
        if self.max_pending_batches < 1:
            raise ValueError("max_pending_batches must be >= 1")
        if self.prime and self.ledger_path is None:
            raise ValueError("--prime requires --ledger")


class _Work:
    """One request's sub-batch bound for one shard."""

    __slots__ = ("actions", "future")

    def __init__(self, actions: list, future: asyncio.Future) -> None:
        self.actions = actions
        self.future = future


class RulingServer:
    """The long-running sharded ruling service."""

    #: Bound on the encoded-ruling memo (entries, not bytes); when full
    #: the memo is dropped wholesale and rebuilt — O(1) amortized.
    ENCODE_MEMO_MAX = 65536

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.router: ShardRouter | None = None
        self.primed_rulings = 0
        # Ruling objects are interned per fingerprint by the shard
        # caches, so encoding each distinct object once and joining the
        # memoized strings makes hot responses a lookup + join instead
        # of a full re-serialization.  Keyed by id() — safe only because
        # the memo also holds the ruling, pinning the id.
        self._encode_memo: dict[int, tuple[object, str]] = {}
        self._ledger: Ledger | None = None
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._rpc_server: asyncio.Server | None = None
        self._metrics_server: asyncio.Server | None = None
        self._stop_requested = False
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Open the ledger, build shards, bind metrics, start listening."""
        config = self.config
        if config.ledger_path is not None:
            self._ledger = Ledger(config.ledger_path)
        self.router = ShardRouter(
            n_shards=config.n_shards,
            cache_size=config.cache_size,
            ledger=self._ledger,
        )
        if config.prime and self._ledger is not None:
            self.primed_rulings = self.router.prime_from_ledger(self._ledger)
        self._bind_metrics()
        self._queues = [asyncio.Queue() for _ in self.router.shards]
        self._workers = [
            asyncio.create_task(
                self._shard_worker(shard, queue),
                name=f"repro-serve-shard-{shard.index}",
            )
            for shard, queue in zip(self.router.shards, self._queues)
        ]
        self._rpc_server = await asyncio.start_server(
            self._handle_connection,
            config.host,
            config.port,
            limit=config.max_line_bytes,
        )
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics,
            config.host,
            config.metrics_port,
            limit=config.max_line_bytes,
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound NDJSON ``(host, port)``."""
        assert self._rpc_server is not None
        sock = self._rpc_server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def metrics_address(self) -> tuple[str, int]:
        """The bound metrics HTTP ``(host, port)``."""
        assert self._metrics_server is not None
        sock = self._metrics_server.sockets[0]
        return sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` is called."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop listeners, cancel workers, close the ledger (idempotent)."""
        if self._stop_requested:
            await self._stopped.wait()
            return
        self._stop_requested = True
        for server in (self._rpc_server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        if self._ledger is not None:
            self._ledger.close()
            self._ledger = None
        self._stopped.set()

    # -- metrics -----------------------------------------------------------------

    def _bind_metrics(self) -> None:
        assert self.router is not None
        registry = OBS.registry
        self._requests = registry.counter(
            "repro_serve_requests_total", "Requests received, by op."
        )
        self._actions_total = registry.counter(
            "repro_serve_actions_total", "Actions received in rule batches."
        )
        self._shed_total = registry.counter(
            "repro_serve_shed_total",
            "Rule batches rejected by the shed backpressure policy.",
        )
        self._errors_total = registry.counter(
            "repro_serve_errors_total", "Error responses, by reason."
        )
        self._connections = registry.gauge(
            "repro_serve_connections", "Open NDJSON connections."
        )
        self._inflight = registry.gauge(
            "repro_serve_inflight_batches",
            "Rule batches accepted and not yet answered.",
        )
        self._ruling_seconds = registry.histogram(
            "repro_serve_ruling_seconds",
            "Per-action ruling latency inside shard workers.",
        )
        self._round_trip_seconds = registry.histogram(
            "repro_serve_round_trip_seconds",
            "Request latency from line read to response bytes ready.",
        )
        self._shard_actions = registry.counter(
            "repro_serve_shard_actions_total",
            "Actions ruled per shard worker.",
        )
        for shard in self.router.shards:
            bind_ruling_cache(shard.cache.stats, name=f"shard{shard.index}")

    # -- shard workers -----------------------------------------------------------

    async def _shard_worker(
        self, shard, queue: asyncio.Queue
    ) -> None:
        """Drain the shard's queue, coalescing waiting work per wake-up."""
        while True:
            items = [await queue.get()]
            while True:
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            actions = [
                action for item in items for action in item.actions
            ]
            started = clock()
            try:
                rulings = shard.evaluate_many(actions)
            except Exception as exc:  # defensive: engine is deterministic
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                continue
            if self._ledger is not None:
                # record_ruling leaves writes pending; flush them at
                # batch granularity so a killed server loses at most
                # the current coalesced batch, not the whole session.
                self._ledger.commit()
            elapsed = clock() - started
            if actions:
                self._ruling_seconds.observe(
                    elapsed / len(actions), count=len(actions)
                )
            self._shard_actions.inc(len(actions), shard=shard.index)
            cursor = 0
            for item in items:
                width = len(item.actions)
                if not item.future.done():
                    item.future.set_result(
                        rulings[cursor : cursor + width]
                    )
                cursor += width
            # Yield so connection handlers can enqueue follow-up work
            # before the next coalescing sweep.
            await asyncio.sleep(0)

    # -- NDJSON connections ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.inc()
        pipeline: asyncio.Queue = asyncio.Queue()
        in_flight = 0
        slot_freed = asyncio.Event()
        # The loop holds tasks weakly: keep each batch's task until it
        # finishes, so it is never collected and close can await it.
        batches: set[asyncio.Task] = set()
        writer_task = asyncio.create_task(
            self._write_loop(pipeline, writer)
        )

        def _release(_fut: asyncio.Future) -> None:
            nonlocal in_flight
            in_flight -= 1
            self._inflight.dec()
            slot_freed.set()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.IncompleteReadError):
                    self._errors_total.inc(reason="oversized_line")
                    await pipeline.put(
                        _error_response(None, "line too long")
                    )
                    break
                except OSError:
                    break  # peer vanished mid-read
                if not line:
                    break
                if line.strip() == b"":
                    continue
                started = clock()
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    self._errors_total.inc(reason="bad_frame")
                    await pipeline.put(
                        _error_response(None, str(exc))
                    )
                    continue
                op = message.get("op")
                self._requests.inc(op=str(op))
                request_id = message.get("id")
                if op == "ping":
                    await pipeline.put(
                        encode_line({"ok": True, "pong": True})
                    )
                    continue
                if op == "stats":
                    await pipeline.put(
                        encode_line(self._stats_response())
                    )
                    continue
                if op != "rule":
                    self._errors_total.inc(reason="unknown_op")
                    await pipeline.put(
                        _error_response(
                            request_id, f"unknown op: {op!r}"
                        )
                    )
                    continue
                try:
                    actions = self._decode_batch(message)
                except ProtocolError as exc:
                    self._errors_total.inc(reason="bad_action")
                    await pipeline.put(
                        _error_response(request_id, str(exc))
                    )
                    continue
                # Backpressure: bound in-flight batches per connection.
                if in_flight >= self.config.max_pending_batches:
                    if self.config.policy == "shed":
                        self._shed_total.inc()
                        await pipeline.put(
                            encode_line(
                                {
                                    "id": request_id,
                                    "ok": False,
                                    "error": "overloaded",
                                    "shed": True,
                                }
                            )
                        )
                        continue
                    while in_flight >= self.config.max_pending_batches:
                        slot_freed.clear()
                        await slot_freed.wait()
                in_flight += 1
                self._inflight.inc()
                self._actions_total.inc(len(actions))
                response_future: asyncio.Future = (
                    asyncio.get_running_loop().create_future()
                )
                response_future.add_done_callback(_release)
                # Reserve the response slot *before* dispatching, so
                # responses always leave in request order.
                await pipeline.put(response_future)
                task = asyncio.create_task(
                    self._process_rule(
                        request_id, actions, started, response_future
                    )
                )
                batches.add(task)
                task.add_done_callback(batches.discard)
        finally:
            if batches:
                await asyncio.wait(batches)
            await pipeline.put(None)
            try:
                await writer_task
            except Exception:
                self._errors_total.inc(reason="writer")
            self._connections.dec()

    async def _write_loop(
        self, pipeline: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Write responses strictly in reservation order."""
        try:
            while True:
                entry = await pipeline.get()
                if entry is None:
                    break
                data = entry if isinstance(entry, bytes) else await entry
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _decode_batch(self, message: dict) -> list:
        payload = message.get("actions")
        if not isinstance(payload, list):
            raise ProtocolError('"actions" must be an array')
        if len(payload) > self.config.max_batch_actions:
            raise ProtocolError(
                f"batch of {len(payload)} exceeds cap "
                f"{self.config.max_batch_actions}"
            )
        return [action_from_dict(item) for item in payload]

    async def _process_rule(
        self,
        request_id: object,
        actions: list,
        started: float,
        response_future: asyncio.Future,
    ) -> None:
        """Fan a batch out to its shards and assemble the response."""
        assert self.router is not None
        try:
            results: list = [None] * len(actions)
            waits = []
            for shard_index, positions in enumerate(
                self.router.partition(actions)
            ):
                if not positions:
                    continue
                future: asyncio.Future = (
                    asyncio.get_running_loop().create_future()
                )
                await self._queues[shard_index].put(
                    _Work([actions[p] for p in positions], future)
                )
                waits.append((positions, future))
            for positions, future in waits:
                for position, ruling in zip(positions, await future):
                    results[position] = ruling
            body = self._encode_rule_response(request_id, results)
            self._round_trip_seconds.observe(clock() - started)
            if not response_future.done():
                response_future.set_result(body)
        except Exception as exc:  # pragma: no cover - defensive
            self._errors_total.inc(reason="internal")
            if not response_future.done():
                response_future.set_result(
                    _error_response(request_id, f"internal: {exc}")
                )

    def _encode_ruling(self, ruling) -> str:
        """Canonical JSON for one ruling, memoized per interned object."""
        key = id(ruling)
        hit = self._encode_memo.get(key)
        if hit is not None:
            return hit[1]
        if len(self._encode_memo) >= self.ENCODE_MEMO_MAX:
            self._encode_memo.clear()
        text = canonical_json(ruling_to_dict(ruling))
        self._encode_memo[key] = (ruling, text)
        return text

    def _encode_rule_response(
        self, request_id: object, rulings: list
    ) -> bytes:
        """The response line, assembled from memoized ruling strings.

        Byte-identical to ``encode_line({"id": ..., "ok": True,
        "rulings": [...]})``: the envelope keys are already in canonical
        (sorted) order and each memoized string is exactly the canonical
        encoding of its ruling dict.
        """
        envelope = canonical_json({"id": request_id, "ok": True})
        parts = [envelope[:-1], ',"rulings":[']
        parts.append(",".join(self._encode_ruling(r) for r in rulings))
        parts.append("]}\n")
        return "".join(parts).encode("utf-8")

    def _stats_response(self) -> dict:
        assert self.router is not None
        stats = self.router.stats()
        stats["primed_rulings"] = self.primed_rulings
        stats["policy"] = self.config.policy
        stats["shed_total"] = self._shed_total.value()
        return {"ok": True, "stats": stats}

    # -- metrics HTTP ------------------------------------------------------------

    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else ""
            if path.split("?")[0] == "/metrics":
                body = OBS.registry.render_text().encode("utf-8")
                status = b"200 OK"
                content_type = b"text/plain; version=0.0.4; charset=utf-8"
            elif path.split("?")[0] == "/healthz":
                body = b"ok\n"
                status = b"200 OK"
                content_type = b"text/plain; charset=utf-8"
            else:
                body = b"not found\n"
                status = b"404 Not Found"
                content_type = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + content_type + b"\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


def _error_response(request_id: object, error: str) -> bytes:
    return encode_line({"id": request_id, "ok": False, "error": error})
