"""Getting metrics out: Prometheus text, ``/metrics`` HTTP, JSONL snapshots.

Three consumers, three formats, one registry:

* :func:`render_prometheus` — the text exposition format every scraper
  speaks; counters become ``repro_<name>_total``, histograms expand to
  cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``;
* :class:`MetricsHTTPServer` — a dependency-free asyncio HTTP listener
  serving ``GET /metrics`` (Prometheus text) and ``GET /metrics.json``
  (the raw snapshot), mounted both on :class:`~repro.net.server.NetServerHost`
  processes and on the client runtime so a TCP deployment is observable
  end to end;
* :class:`JsonlSnapshotWriter` — periodic whole-registry snapshots as
  JSONL, the artifact CI uploads and offline analysis greps.

An optional ``on_scrape``/``on_snapshot`` hook runs before each read so
derived gauges (:class:`~repro.obs.health.HealthMonitor`) are fresh.
"""

from __future__ import annotations

import json
from math import inf
from typing import TYPE_CHECKING, Callable

from repro.obs.registry import Counter, Gauge, Histogram, Registry

if TYPE_CHECKING:
    import asyncio


def _metric_name(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{cleaned}"


def _format_value(value: float) -> str:
    if value == inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: Registry) -> str:
    """The registry's instruments in Prometheus text exposition format."""
    lines: list[str] = []
    for name in registry.names():
        instrument = registry.get(name)
        metric = _metric_name(name)
        if isinstance(instrument, Histogram):
            lines.append(f"# TYPE {metric} histogram")
            for bound, cumulative in instrument.bucket_counts():
                lines.append(
                    f'{metric}_bucket{{le="{_format_value(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(f"{metric}_sum {_format_value(instrument.sum)}")
            lines.append(f"{metric}_count {instrument.count}")
        elif isinstance(instrument, Counter):
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(f"{metric}_total {instrument.value}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(instrument.value)}")
    return "\n".join(lines) + "\n"


class MetricsHTTPServer:
    """Minimal asyncio HTTP server exposing one registry.

    ``GET /metrics`` answers Prometheus text; ``GET /metrics.json``
    answers the JSON snapshot; anything else is 404.  One-shot
    connections (``Connection: close``) keep the implementation a screen
    long — scrapers reconnect per scrape anyway.  ``port=0`` binds an
    ephemeral port, published through :attr:`port` / :attr:`endpoint`
    after :meth:`start`.
    """

    def __init__(
        self,
        registry: Registry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        on_scrape: Callable[[], None] | None = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.on_scrape = on_scrape
        self._listener: asyncio.Server | None = None
        self.scrapes = 0

    @property
    def endpoint(self) -> str:
        """``host:port`` of the bound listener."""
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener (resolving an ephemeral port).

        The one place ``repro.obs`` imports the event loop: a process
        that never starts a listener never loads ``asyncio``."""
        import asyncio

        self._listener = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    def _respond(self, path: str) -> tuple[int, str, str]:
        if path.split("?", 1)[0] == "/metrics":
            return 200, "text/plain; version=0.0.4", render_prometheus(
                self.registry
            )
        if path.split("?", 1)[0] == "/metrics.json":
            return 200, "application/json", json.dumps(
                self.registry.snapshot()
            )
        return 404, "text/plain", "not found\n"

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> list[str] | None:
        """The request line's words, read up to the blank line that ends
        the headers (which we never need); ``None`` when a line overran
        the reader's limit — the rest of the request is drained all the
        same, so the reply is not lost to a reset connection."""
        request, overrun = b"", False
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # past the limit: the reader dropped it
                overrun = True
                continue
            if line in (b"\r\n", b"\n", b""):
                break
            request = request or line
        return None if overrun else request.decode("latin-1", "replace").split()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parts = await self._read_request(reader)
            if parts is None:
                status, ctype, body = 400, "text/plain", "request too long\n"
            elif len(parts) < 2 or parts[0] != "GET":
                status, ctype, body = 405, "text/plain", "GET only\n"
            else:
                if self.on_scrape is not None:
                    self.on_scrape()
                self.scrapes += 1
                status, ctype, body = self._respond(parts[1])
            reason = {
                200: "OK",
                400: "Bad Request",
                404: "Not Found",
                405: "Method Not Allowed",
            }
            payload = body.encode()
            writer.write(
                (
                    f"HTTP/1.0 {status} {reason.get(status, 'OK')}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode()
                + payload
            )
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer vanished
            pass
        finally:
            writer.close()


class JsonlSnapshotWriter:
    """Appends timestamped whole-registry snapshots to a JSONL file.

    Each :meth:`write` appends ``{"t": <now>, "metrics": {...}}`` as one
    line.  The caller owns the cadence — the CLI drives it from the run
    loop, tests call it directly.  ``on_snapshot`` (typically
    ``HealthMonitor.refresh``) runs before each read.
    """

    def __init__(
        self,
        registry: Registry,
        path,
        *,
        on_snapshot: Callable[[], None] | None = None,
    ) -> None:
        self.registry = registry
        self.path = path
        self.on_snapshot = on_snapshot
        self.snapshots_written = 0
        open(path, "w").close()  # truncate: one file per run

    def write(self, now: float) -> dict:
        """Refresh, snapshot, append one line; returns the snapshot."""
        if self.on_snapshot is not None:
            self.on_snapshot()
        snapshot = self.registry.snapshot()
        with open(self.path, "a") as fh:
            fh.write(json.dumps({"t": now, "metrics": snapshot}) + "\n")
        self.snapshots_written += 1
        return snapshot
