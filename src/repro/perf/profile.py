"""Hit/miss counters of the process-wide hot-path memo caches.

The encoding and digest-chain memos live at module level, so their
effectiveness is a process-wide fact: :func:`hot_path_cache_stats` reads
it (and :func:`repro.obs.health.deployment_counts` publishes it as
``hot_path.*``), :func:`reset_hot_path_caches` zeroes it so a benchmark
pass describes exactly one workload.
"""

from __future__ import annotations


def hot_path_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss counters of the process-wide hot-path memo caches.

    Covers the TLV-encoding memos (:mod:`repro.common.encoding`) and the
    digest-chain memo (:mod:`repro.ustor.digests`).  The signature
    verification cache lives on each deployment's keystore, not at
    module level; :func:`repro.obs.health.deployment_counts` reads it.
    """
    from repro.common.encoding import encoding_cache_stats
    from repro.ustor.digests import chain_cache_stats

    return {
        "encoding": encoding_cache_stats(),
        "digest_chain": chain_cache_stats(),
    }


def reset_hot_path_caches() -> None:
    """Reset the process-wide memo caches and their counters.

    Benchmarks call this between the reference and optimized passes so
    hit rates describe exactly one measured workload.
    """
    from repro.common.encoding import reset_encoding_caches
    from repro.ustor.digests import reset_chain_cache

    reset_encoding_caches()
    reset_chain_cache()
