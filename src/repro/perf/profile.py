"""Machine-readable performance profiles of a running deployment.

:func:`system_profile` (also exposed as ``profile()`` on
:class:`~repro.workloads.runner.StorageSystem`,
:class:`~repro.api.system.System` and
:class:`~repro.cluster.system.ClusterSystem`) snapshots the counters the
runtime already maintains: scheduler events, per-client completed
operations, server SUBMIT/COMMIT tallies and pending-list pressure, plus
the hot-path cache effectiveness of the encoding, digest-chain and
signature-verification memos (:func:`hot_path_cache_stats`).  Timers and
counters of a *scenario* belong on the :mod:`repro.obs` registry; when it
is enabled its snapshot rides along under ``"obs"``.

Everything returned is plain dict/list/str/int/float, so profiles can be
``json.dump``-ed as they are (see PERFORMANCE.md for the cost model they
feed).
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import get_registry


def hot_path_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss counters of the process-wide hot-path memo caches.

    Covers the TLV-encoding memos (:mod:`repro.common.encoding`) and the
    digest-chain memo (:mod:`repro.ustor.digests`).  The per-system
    signature-verification cache is reported by :func:`system_profile`
    since it lives on the system's keystore, not at module level.
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


def _server_stats(server: Any) -> dict[str, Any]:
    stats = {
        "submits_handled": getattr(server, "submits_handled", 0),
        "commits_handled": getattr(server, "commits_handled", 0),
        "max_pending_len": getattr(server, "max_pending_len", 0),
        "restarts": getattr(server, "restarts", 0),
    }
    if getattr(server, "group_commit", False):
        stats["group_commits"] = getattr(server, "group_commits", 0)
        stats["largest_group_commit"] = getattr(server, "largest_group_commit", 0)
    return stats


def _shard_profile(shard: Any) -> dict[str, Any]:
    """The per-deployment core of :func:`system_profile` (one scheduler +
    server + client population)."""
    profile: dict[str, Any] = {
        "scheduler": {
            "now": shard.scheduler.now,
            "events_processed": shard.scheduler.events_processed,
            # A wall-clock scheduler (tcp) keeps its timers on the loop.
            "pending_events": getattr(shard.scheduler, "pending", 0),
        },
        "clients": {
            "count": len(shard.clients),
            "completed_operations": sum(
                getattr(c, "completed_operations", 0) for c in shard.clients
            ),
            "failed": sum(1 for c in shard.clients if c.failed),
            "crashed": sum(1 for c in shard.clients if c.crashed),
        },
    }
    server = getattr(shard, "server", None)
    if server is not None:
        profile["server"] = _server_stats(server)
    network = getattr(shard, "network", None)
    if network is not None and getattr(network, "batching", False):
        profile["transport_batching"] = {
            "bursts_formed": network.bursts_formed,
            "messages_coalesced": network.messages_coalesced,
        }
    keystore = getattr(shard, "keystore", None)
    if keystore is not None and hasattr(keystore, "verification_cache_stats"):
        profile["verification_cache"] = keystore.verification_cache_stats()
    return profile


def system_profile(system: Any) -> dict[str, Any]:
    """A machine-readable performance profile of a running deployment.

    Accepts a raw :class:`~repro.workloads.runner.StorageSystem`, an
    api-level :class:`~repro.api.system.System` (unwrapped via ``.raw``),
    or a sharded :class:`~repro.cluster.system.ClusterSystem` (profiled
    per shard and aggregated).  Always includes the process-wide
    hot-path cache stats, so a scenario's profile shows how much hashing
    and encoding work the fast paths removed.
    """
    backend_name = getattr(system, "backend_name", None)
    raw = getattr(system, "raw", system)
    shards = getattr(raw, "shards", None)
    if shards is not None:
        per_shard = [_shard_profile(shard) for shard in shards]
        profile: dict[str, Any] = {
            "kind": "cluster",
            "num_shards": len(shards),
            "scheduler": {
                "now": raw.scheduler.now,
                "events_processed": raw.scheduler.events_processed,
                "pending_events": raw.scheduler.pending,
            },
            "shards": per_shard,
            "clients": {
                "count": raw.num_clients,
                "completed_operations": sum(
                    getattr(c, "completed_operations", 0) for c in raw.clients
                ),
            },
            "server": {
                "submits_handled": sum(
                    s["server"]["submits_handled"] for s in per_shard if "server" in s
                ),
                "commits_handled": sum(
                    s["server"]["commits_handled"] for s in per_shard if "server" in s
                ),
            },
        }
    else:
        profile = {"kind": "single", **_shard_profile(raw)}
    if backend_name is not None:
        profile["backend"] = backend_name
    profile["hot_path_caches"] = hot_path_cache_stats()
    registry = get_registry()
    if registry.enabled:
        profile["obs"] = registry.snapshot()
    return profile
