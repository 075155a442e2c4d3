"""Machine-readable performance profiles of a running deployment.

:func:`system_profile` (also ``profile()`` on every deployment,
:class:`~repro.workloads.runner.Deployment`) snapshots the counters the
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
    """The per-deployment core of :func:`system_profile`: one
    :class:`~repro.workloads.runner.StorageSystem`'s scheduler, server,
    clients, transport and keystore."""
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
    if shard.server is not None:
        profile["server"] = _server_stats(shard.server)
    network = shard.network
    if getattr(network, "batching", False):
        profile["transport_batching"] = {
            "bursts_formed": network.bursts_formed,
            "messages_coalesced": network.messages_coalesced,
        }
    profile["verification_cache"] = shard.keystore.verification_cache_stats()
    return profile


def system_profile(system: Any) -> dict[str, Any]:
    """A machine-readable performance profile of a running deployment.

    A :class:`~repro.cluster.system.ClusterSystem` is profiled per shard
    and aggregated (``"kind": "cluster"``); any other deployment is one
    ``"single"`` profile.  Always includes the process-wide hot-path
    cache stats, so a scenario's profile shows how much hashing and
    encoding work the fast paths removed.
    """
    from repro.cluster.system import ClusterSystem

    if isinstance(system, ClusterSystem):
        per_shard = [_shard_profile(shard) for shard in system.shards]
        profile: dict[str, Any] = {
            "kind": "cluster",
            "num_shards": len(per_shard),
            "scheduler": {
                "now": system.scheduler.now,
                "events_processed": system.scheduler.events_processed,
                "pending_events": system.scheduler.pending,
            },
            "shards": per_shard,
            "clients": {
                "count": system.num_clients,
                "completed_operations": sum(
                    getattr(c, "completed_operations", 0) for c in system.clients
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
        profile = {"kind": "single", **_shard_profile(system)}
    if system.backend_name is not None:
        profile["backend"] = system.backend_name
    profile["hot_path_caches"] = hot_path_cache_stats()
    registry = get_registry()
    if registry.enabled:
        profile["obs"] = registry.snapshot()
    return profile
