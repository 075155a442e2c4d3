"""Performance accounting for the reproduction (see PERFORMANCE.md).

Two halves:

* :mod:`repro.perf.profile` — :func:`system_profile`, which snapshots
  any running deployment (single-server, api-level or sharded cluster)
  into machine-readable data, hot-path cache effectiveness included.
* :mod:`repro.perf.regression` — the pipeline that compares two
  ``BENCH_*.json`` files and fails CI on >20% regressions
  (``python -m repro.perf baseline.json current.json``).
"""

from repro.perf.profile import (
    hot_path_cache_stats,
    reset_hot_path_caches,
    system_profile,
)
from repro.perf.regression import (
    DEFAULT_MAX_REGRESSION,
    Delta,
    Report,
    compare,
    load_results,
)

__all__ = [
    "DEFAULT_MAX_REGRESSION",
    "Delta",
    "Report",
    "compare",
    "hot_path_cache_stats",
    "load_results",
    "reset_hot_path_caches",
    "system_profile",
]
