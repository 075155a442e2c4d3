"""Process-wide hot-path cache accounting (see PERFORMANCE.md).

:func:`hot_path_cache_stats` reads the hit/miss counters of the
encoding and digest-chain memos; :func:`reset_hot_path_caches` zeroes
them between benchmark passes.  A deployment's runtime counts — these
caches included — are read by :func:`repro.obs.health.deployment_counts`
and published through the metrics registry (``repro run --metrics``).
Performance claims themselves are decided by the end-to-end benchmark
(``BENCHMARK.json``, ``benchmarks/e2e``).
"""

from repro.perf.profile import hot_path_cache_stats, reset_hot_path_caches

__all__ = ["hot_path_cache_stats", "reset_hot_path_caches"]
