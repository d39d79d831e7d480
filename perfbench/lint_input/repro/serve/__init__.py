"""Compliance-as-a-service: the sharded batching ruling server.

The compliance engine is a fast in-process library, but the ROADMAP's
"millions of users" target needs rulings served from one long-running
process that many consumers share.  This package provides that:

* :mod:`repro.serve.protocol` — the newline-delimited-JSON wire format:
  a complete, loss-free action codec (the inverse problem of the
  ledger's ruling codec) and canonical request/response envelopes, so a
  served ruling is *byte-identical* to the in-process one;
* :mod:`repro.serve.shard` — :class:`~repro.serve.shard.ShardRouter`:
  N shards, each owning a **private** ``RulingCache`` and
  ``ComplianceEngine``, with actions routed by fingerprint hash — no
  shard ever touches another's state, so the hot path has no locks;
* :mod:`repro.serve.server` — the asyncio server: NDJSON batches over
  TCP with responses streamed back in request order, bounded
  per-connection queues with a configurable ``queue``/``shed``
  backpressure policy, an HTTP ``/metrics`` endpoint rendering the
  :mod:`repro.obs` registry (per-shard cache counters, in-flight
  batches, latency histograms), and optional ledger persistence with
  startup cache priming;
* :mod:`repro.serve.client` — a small blocking client for tests and
  load generation;
* :mod:`repro.serve.bench` — the ``repro serve-bench`` load generator:
  replays the seeded corpora against a server, writes
  ``BENCH_serve.json`` (sustained rulings/s, round-trip p50/p99, shard
  balance, cache hit rate), and gates on the server responses being
  byte-identical to in-process ``evaluate_many()``.
"""

from repro.serve.protocol import (
    action_from_dict,
    action_to_dict,
    decode_line,
    encode_line,
)
from repro.serve.shard import ShardRouter
from repro.serve.server import RulingServer, ServerConfig

__all__ = [
    "RulingServer",
    "ServerConfig",
    "ShardRouter",
    "action_from_dict",
    "action_to_dict",
    "decode_line",
    "encode_line",
]
