"""Exposition-layer tests: Prometheus text, the ``/metrics`` HTTP
listener, JSONL snapshots, and causal trace ids across a TCP run.

The HTTP tests drive a real asyncio listener over loopback sockets; the
trace test records a full TCP run with a span log on both the clients and
the server host and asserts that each side derives the same id for every
SUBMIT (no id travels on the wire), and that ``repro replay``'s
byte-identity verdict holds.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.obs.exposition import (
    JsonlSnapshotWriter,
    MetricsHTTPServer,
    render_prometheus,
)
from repro.obs.registry import COUNT_BUCKETS, Registry


def _populated_registry() -> Registry:
    registry = Registry()
    registry.counter("net.frames_sent").inc(3)
    registry.gauge("health.max_stability_lag").set(2.0)
    hist = registry.histogram("session.flush_batch_ops", COUNT_BUCKETS)
    hist.observe(1)
    hist.observe(3)
    return registry


class TestRenderPrometheus:
    def test_counter_gauge_histogram_series(self):
        text = render_prometheus(_populated_registry())
        assert "# TYPE repro_net_frames_sent_total counter" in text
        assert "repro_net_frames_sent_total 3" in text
        assert "repro_health_max_stability_lag 2" in text
        # Histogram: cumulative le buckets, closed by +Inf.
        assert 'repro_session_flush_batch_ops_bucket{le="1"} 1' in text
        assert 'repro_session_flush_batch_ops_bucket{le="4"} 2' in text
        assert 'repro_session_flush_batch_ops_bucket{le="+Inf"} 2' in text
        assert "repro_session_flush_batch_ops_sum 4" in text
        assert "repro_session_flush_batch_ops_count 2" in text

    def test_names_are_sanitized(self):
        registry = Registry()
        registry.counter("a.b-c d").inc()
        assert "repro_a_b_c_d_total 1" in render_prometheus(registry)


async def _scrape(server: MetricsHTTPServer, request: str) -> tuple[str, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(request.encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    return head.splitlines()[0], body


class TestMetricsHTTPServer:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_metrics_and_json_and_errors(self):
        async def scenario():
            registry = _populated_registry()
            refreshed = []
            server = MetricsHTTPServer(
                registry, port=0, on_scrape=lambda: refreshed.append(1)
            )
            await server.start()
            try:
                status, body = await _scrape(
                    server, "GET /metrics HTTP/1.0\r\n\r\n"
                )
                assert "200" in status
                assert "repro_net_frames_sent_total 3" in body
                status, body = await _scrape(
                    server, "GET /metrics.json HTTP/1.0\r\n\r\n"
                )
                assert "200" in status
                assert json.loads(body)["net.frames_sent"] == 3
                status, _ = await _scrape(
                    server, "GET /nope HTTP/1.0\r\n\r\n"
                )
                assert "404" in status
                status, _ = await _scrape(
                    server, "POST /metrics HTTP/1.0\r\n\r\n"
                )
                assert "405" in status
                # on_scrape ran for the two successful reads + the 404
                # (it refreshes gauges before routing), scrapes counted.
                assert server.scrapes == 3
                assert refreshed
            finally:
                await server.stop()

        self._run(scenario())

    def test_ephemeral_port_resolved_and_endpoint(self):
        async def scenario():
            server = MetricsHTTPServer(Registry(), port=0)
            await server.start()
            try:
                assert server.port != 0
                assert server.endpoint == f"127.0.0.1:{server.port}"
            finally:
                await server.stop()

        self._run(scenario())


class TestJsonlSnapshotWriter:
    def test_appends_timestamped_snapshots(self, tmp_path):
        registry = Registry()
        counter = registry.counter("x")
        path = tmp_path / "metrics.jsonl"
        hooked = []
        writer = JsonlSnapshotWriter(
            registry, path, on_snapshot=lambda: hooked.append(1)
        )
        counter.inc()
        writer.write(1.0)
        counter.inc()
        writer.write(2.5)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["t"] for line in lines] == [1.0, 2.5]
        assert [line["metrics"]["x"] for line in lines] == [1, 2]
        assert writer.snapshots_written == 2
        assert len(hooked) == 2

    def test_truncates_the_previous_run(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("stale\n")
        JsonlSnapshotWriter(Registry(), path)
        assert path.read_text() == ""


@pytest.mark.net
class TestTraceIdsAcrossProcesses:
    def test_server_and_client_derive_one_id_and_the_run_replays(self, tmp_path):
        from repro.api import SystemConfig, open_system
        from repro.net.client import NetRuntime
        from repro.net.server import NetServerHost
        from repro.net.trace import replay_trace
        from repro.obs.tracing import SpanLog
        from repro.workloads.generator import (
            Driver,
            WorkloadConfig,
            generate_scripts,
        )

        trace_path = tmp_path / "wire.jsonl"
        runtime = NetRuntime()
        host = NetServerHost(2)
        runtime.run_coroutine(host.start())
        span_log = SpanLog()
        host.span_log = span_log
        system = open_system(
            SystemConfig(
                2,
                transport="tcp",
                endpoints=(host.endpoint,),
                trace_path=str(trace_path),
                span_log=span_log,
                default_timeout=10.0,
            ),
            backend="ustor",
            runtime=runtime,
        )
        system.hosts.append(host)
        system.owns_runtime = True
        with system:
            scripts = generate_scripts(
                2,
                WorkloadConfig(
                    ops_per_client=4, read_fraction=0.5, mean_think_time=0.005
                ),
                random.Random(5),
            )
            driver = Driver(system)
            driver.attach_all(scripts)
            assert driver.run_to_completion(timeout=20.0)
            system.run_until_quiescent(timeout=5.0)

        # Per client, the server's SUBMIT instants carry the ids of the
        # client's own submit instants, one for one and in order.
        def ids(prefix: str, client: int) -> list:
            return [
                r["trace_id"]
                for r in span_log.records
                if r["name"].startswith(prefix) and r["args"]["client"] == client
            ]

        for client in range(2):
            client_ids = ids("submit:", client)
            assert len(client_ids) == 4 and None not in client_ids
            assert ids("server:submit", client) == client_ids
        result = replay_trace(str(trace_path))
        assert result.ok, result.divergences
        assert len(result.history) == 8
