"""`repro.obs` — the observability spine: metrics, tracing, health.

One registry feeds every surface.  The hot seams (session issue/settle,
transport bursts, group commits, WAL appends, framing, auditors) hold
registry handles and increment them unconditionally; whether those
increments land in a real :class:`~repro.obs.registry.Registry` (shared,
snapshotable, exposable) or in detached no-op instruments (the default)
is decided once, at handle-creation time, by
:func:`~repro.obs.registry.get_registry`.  That keeps the off-switch
near-zero-cost — no branch per event, just an attribute add on a
throwaway counter — which `benchmarks/test_bench_obs.py` gates at <=5%
on the digest/encode hot paths.

The package splits into four modules:

* :mod:`repro.obs.registry` — counters, gauges, fixed-bucket histograms
  (p50/p95/p99), the registry itself, and the process-global default;
* :mod:`repro.obs.tracing` — deterministic per-operation trace ids
  (client id + protocol timestamp: derived by each reader, never sent)
  and the :class:`~repro.obs.tracing.SpanLog`, read off a deployment's
  recorders and notification hub, with JSONL and Chrome export;
* :mod:`repro.obs.health` — the fail-aware headline gauges read off a
  deployment: per-client stability lag, time-to-detection from
  Byzantine deviation to ``FailureNotification``, auditor progress;
* :mod:`repro.obs.exposition` — Prometheus text rendering, the
  ``/metrics`` asyncio HTTP endpoint, and the periodic JSONL snapshot
  writer.
"""

from repro.obs.exposition import (
    JsonlSnapshotWriter,
    MetricsHTTPServer,
    render_prometheus,
)
from repro.obs.health import HealthMonitor
from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    enable_metrics,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracing import (
    SpanLog,
    make_trace_id,
    trace_client,
    trace_timestamp,
)

__all__ = [
    "COUNT_BUCKETS",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "JsonlSnapshotWriter",
    "MetricsHTTPServer",
    "NullRegistry",
    "Registry",
    "SpanLog",
    "enable_metrics",
    "get_registry",
    "make_trace_id",
    "render_prometheus",
    "set_registry",
    "trace_client",
    "trace_timestamp",
    "use_registry",
]
