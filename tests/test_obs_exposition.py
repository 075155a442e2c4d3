"""Exposition-layer tests: Prometheus text, the ``/metrics`` HTTP
listener and JSONL snapshots.

The HTTP tests drive a real asyncio listener over loopback sockets.
"""

from __future__ import annotations

import asyncio
import json

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

    def test_over_long_request_line_is_a_bad_request(self):
        async def scenario():
            server = MetricsHTTPServer(_populated_registry(), port=0)
            await server.start()
            try:
                status, _ = await _scrape(
                    server, f"GET /{'a' * 70_000} HTTP/1.0\r\n\r\n"
                )
                assert "400 Bad Request" in status
                # The handler survived: the next scrape is answered.
                status, body = await _scrape(
                    server, "GET /metrics HTTP/1.0\r\n\r\n"
                )
                assert "200" in status
                assert "repro_net_frames_sent_total 3" in body
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

