"""Performance accounting for the reproduction (see PERFORMANCE.md).

:func:`system_profile` snapshots any running deployment (single-server,
api-level or sharded cluster) into machine-readable data, hot-path
cache effectiveness included.  Performance claims themselves are
decided by the end-to-end benchmark (``BENCHMARK.json``,
``benchmarks/e2e``).
"""

from repro.perf.profile import (
    hot_path_cache_stats,
    reset_hot_path_caches,
    system_profile,
)

__all__ = [
    "hot_path_cache_stats",
    "reset_hot_path_caches",
    "system_profile",
]
