"""End-to-end server tests over real sockets on ephemeral loopback ports."""

import asyncio
import json
import urllib.request

import pytest

from repro.core.cache import RulingCache
from repro.core.engine import ComplianceEngine
from repro.ledger.serialize import canonical_json, ruling_to_dict
from repro.obs import OBS
from repro.serve.client import ServeClient
from repro.serve.harness import ServerThread
from repro.serve.protocol import action_to_dict, encode_line
from repro.serve.server import RulingServer, ServerConfig
from repro.workloads import action_corpus


def _config(**overrides) -> ServerConfig:
    base = {"port": 0, "metrics_port": 0, "n_shards": 4}
    base.update(overrides)
    return ServerConfig(**base)


def _reference_strings(corpus) -> list[str]:
    engine = ComplianceEngine(cache=RulingCache(maxsize=2 * len(corpus)))
    return [
        canonical_json(ruling_to_dict(r))
        for r in engine.evaluate_many(corpus)
    ]


class TestOps:
    def test_ping_stats_and_rule(self):
        corpus = action_corpus(120, seed=31)
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                assert client.ping() == {"ok": True, "pong": True}

                response = client.rule(corpus, request_id=7)
                assert response["ok"] and response["id"] == 7
                served = [
                    canonical_json(r) for r in response["rulings"]
                ]
                assert served == _reference_strings(corpus)

                stats = client.stats()["stats"]
                assert stats["n_shards"] == 4
                assert sum(
                    s["actions_ruled"] for s in stats["shards"]
                ) == len(corpus)

    def test_connection_survives_request_level_errors(self):
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client._sock.sendall(b"{not json\n")
                assert client.read_response()["ok"] is False

                client.send_line({"op": "nope", "id": 1})
                response = client.read_response()
                assert response["ok"] is False
                assert "unknown op" in response["error"]

                client.send_line(
                    {"op": "rule", "id": 2, "actions": [{"bad": True}]}
                )
                response = client.read_response()
                assert response["ok"] is False and response["id"] == 2

                client.send_line({"op": "rule", "id": 3, "actions": "x"})
                assert client.read_response()["ok"] is False

                # The connection is still healthy after all of that.
                assert client.ping()["ok"] is True

    def test_batch_cap_is_enforced(self):
        corpus = action_corpus(5, seed=32)
        with ServerThread(_config(max_batch_actions=3)) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                response = client.rule(corpus, request_id=9)
                assert response["ok"] is False
                assert "exceeds cap" in response["error"]
                assert client.rule(corpus[:3], request_id=10)["ok"]


class TestPipeliningAndBackpressure:
    def test_pipelined_responses_arrive_in_request_order(self):
        corpus = action_corpus(600, seed=33)
        batches = [corpus[i : i + 60] for i in range(0, 600, 60)]
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                for index, batch in enumerate(batches):
                    response = client.read_response()
                    assert response["id"] == index
                    assert len(response["rulings"]) == len(batch)

    def test_queue_policy_answers_everything_without_shedding(self):
        corpus = action_corpus(800, seed=34)
        batches = [corpus[i : i + 40] for i in range(0, 800, 40)]
        config = _config(max_pending_batches=1, policy="queue")
        with ServerThread(config) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                answered = [client.read_response() for _ in batches]
            assert all(r["ok"] for r in answered)
            assert [r["id"] for r in answered] == list(range(len(batches)))
            with ServeClient(host, port) as client:
                assert client.stats()["stats"]["shed_total"] == 0

    def test_shed_policy_rejects_overload_with_shed_flag(self):
        corpus = action_corpus(2_000, seed=35)
        batches = [corpus[i : i + 100] for i in range(0, 2_000, 100)]
        config = _config(max_pending_batches=1, policy="shed")
        with ServerThread(config) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                answered = [client.read_response() for _ in batches]
                shed = [r for r in answered if not r["ok"]]
                ruled = [r for r in answered if r["ok"]]
                # Everything got an answer, in order, and at least one
                # batch was shed (depth 20 against a bound of 1).
                assert [r["id"] for r in answered] == list(
                    range(len(batches))
                )
                assert shed and ruled
                assert all(r["shed"] is True for r in shed)
                assert all(r["error"] == "overloaded" for r in shed)
                stats = client.stats()["stats"]
                assert stats["shed_total"] == len(shed)


class TestDifferential:
    def test_10k_corpus_server_vs_inprocess_byte_identical(self):
        corpus = action_corpus(10_000, seed=7)
        batches = [
            corpus[i : i + 500] for i in range(0, len(corpus), 500)
        ]
        served: list[str] = []
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                for index, batch in enumerate(batches):
                    client.send_rule(index, batch)
                for index, _batch in enumerate(batches):
                    response = client.read_response()
                    assert response["ok"] and response["id"] == index
                    served.extend(
                        canonical_json(r) for r in response["rulings"]
                    )
        assert served == _reference_strings(corpus)


class TestMetricsEndpoint:
    def _get(self, address, path):
        host, port = address
        request = urllib.request.Request(f"http://{host}:{port}{path}")
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8")

    def test_metrics_healthz_and_404(self):
        corpus = action_corpus(400, seed=36)
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.rule(corpus)
                client.rule(corpus)

                # Scrape while the connection is still open: the gauge
                # value is deterministic (disconnects are noticed
                # asynchronously, so scraping after close would race).
                status, text = self._get(
                    thread.metrics_address, "/metrics"
                )
            assert status == 200
            for marker in (
                'repro_ruling_cache_hits{cache="shard0"}',
                'repro_ruling_cache_hits{cache="shard3"}',
                "repro_serve_requests_total",
                "repro_serve_actions_total 800",
                "repro_serve_inflight_batches 0",
                "repro_serve_ruling_seconds_bucket",
                "repro_serve_round_trip_seconds_bucket",
                "repro_serve_round_trip_seconds_count 2",
                "repro_serve_connections 1",
            ):
                assert marker in text, marker

            assert self._get(thread.metrics_address, "/healthz") == (
                200,
                "ok\n",
            )
            status, _text = self._get(thread.metrics_address, "/nope")
            assert status == 404


class TestLedgerIntegration:
    def test_prime_warms_every_shard_from_the_ledger(self, tmp_path):
        path = str(tmp_path / "serve.sqlite")
        corpus = action_corpus(500, seed=37)

        with ServerThread(_config(ledger_path=path)) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                client.rule(corpus)

        config = _config(ledger_path=path, prime=True)
        with ServerThread(config) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                stats = client.stats()["stats"]
                assert stats["primed_rulings"] > 0
                response = client.rule(corpus)
                assert [
                    canonical_json(r) for r in response["rulings"]
                ] == _reference_strings(corpus)
                stats = client.stats()["stats"]
                # Every ruling was served from a primed cache entry.
                assert stats["cache_misses"] == 0
                assert stats["cache_hits"] == len(corpus)

    def test_prime_without_ledger_is_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(prime=True)

    def test_bad_policy_is_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(policy="drop")


class TestResponseEncoding:
    def test_memoized_response_equals_direct_encoding(self):
        corpus = action_corpus(200, seed=38)
        with ServerThread(_config()) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                first = client.rule(corpus, request_id="a")
                second = client.rule(corpus, request_id="a")
        # Hot (memoized) responses must be byte-identical to cold ones.
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestConnectionClose:
    def test_close_with_batches_in_flight_leaves_no_pending_tasks(self):
        batches, width = 8, 300
        payload = [action_to_dict(a) for a in action_corpus(width, seed=51)]

        async def scenario() -> list[asyncio.Task]:
            server = RulingServer(_config(n_shards=2))
            await server.start()
            try:
                _reader, writer = await asyncio.open_connection(
                    *server.address
                )
                for request_id in range(batches):
                    writer.write(
                        encode_line(
                            {"op": "rule", "id": request_id, "actions": payload}
                        )
                    )
                await writer.drain()
                # Hang up without reading a single response.
                writer.close()
                await writer.wait_closed()
                registry = OBS.registry
                accepted = registry.counter("repro_serve_actions_total")
                connections = registry.gauge("repro_serve_connections")
                # The hang-up may reset the socket before every batch is
                # read; any dispatched batch is enough to exercise close.
                while accepted.value() == 0 or connections.value() != 0:
                    await asyncio.sleep(0.01)
                errors = registry.counter("repro_serve_errors_total")
                assert errors.value(reason="writer") == 0
                return [
                    task
                    for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__
                    == "RulingServer._process_rule"
                ]
            finally:
                await server.stop()

        assert asyncio.run(asyncio.wait_for(scenario(), 30)) == []

    def test_writer_failure_is_counted_not_swallowed(self, monkeypatch):
        async def failing_write_loop(self, pipeline, writer):
            writer.close()
            raise RuntimeError("writer broke")

        monkeypatch.setattr(RulingServer, "_write_loop", failing_write_loop)

        async def scenario() -> float:
            server = RulingServer(_config(n_shards=1))
            await server.start()
            try:
                _reader, writer = await asyncio.open_connection(
                    *server.address
                )
                errors = OBS.registry.counter("repro_serve_errors_total")
                connections = OBS.registry.gauge("repro_serve_connections")
                while errors.value(reason="writer") == 0:
                    await asyncio.sleep(0.01)
                writer.close()
                assert connections.value() == 0
                return errors.value(reason="writer")
            finally:
                await server.stop()

        assert asyncio.run(asyncio.wait_for(scenario(), 30)) == 1
