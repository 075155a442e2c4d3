"""Opening a sharded deployment from a :class:`SystemConfig`.

The cluster backend interprets the shard-axis knobs — ``shards``,
``shard_map``, ``shard_protocol``, ``shard_server_factories`` — and the
replica-axis knobs — ``replicas``, ``quorum``, ``counter``,
``replica_server_factories`` (:mod:`repro.replica`) — and assembles one
deployment per shard over a shared scheduler (``shard_outages`` become
faults on the opened system, like ``server_outages`` on any backend).
Everything else (latency models, storage engine, FAUST tuning, seeds)
applies uniformly to every shard, so a config that ran on the ``faust``
backend runs on ``cluster`` by adding ``shards=N`` (and ``replicas=K``
for rollback-resistant shards).
"""

from __future__ import annotations

import hashlib

from repro.api.backends import build_deployment, protocol_for
from repro.api.config import SystemConfig
from repro.cluster.shardmap import make_shard_map
from repro.cluster.system import ClusterSystem
from repro.sim.scheduler import Scheduler


def derive_shard_seed(seed: int, shard: int) -> int:
    """A stable per-shard sub-seed for shard-local RNG streams.

    Hash-derived (not ``seed + shard``) so that neighbouring seeds and
    neighbouring shards never collide: seed 0 / shard 1 must not draw
    the stream of seed 1 / shard 0.
    """
    digest = hashlib.sha256(f"{seed}/{shard}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def open_cluster_system(config: SystemConfig) -> ClusterSystem:
    """Build a :class:`ClusterSystem` described by ``config``."""
    shard_map = make_shard_map(
        config.shard_map, config.shards, config.num_clients
    )

    scheduler = Scheduler(seed=config.seed)
    protocol = protocol_for(config.shard_protocol, config)
    shards = [
        build_deployment(
            config,
            protocol,
            server_factory=config.shard_server_factories.get(
                shard, config.server_factory
            ),
            server_name=f"S{shard}",
            scheduler=scheduler,
            # Per-shard latency stream: with one shared stream, shard k's
            # draws depended on every other shard's message *count* — and
            # identically-configured shards drew correlated samples.  A
            # single-shard cluster keeps the shared stream (byte-identical
            # to the single-server backends).
            latency_seed=(
                derive_shard_seed(config.seed, shard)
                if config.shards > 1
                else None
            ),
        )
        for shard in range(config.shards)
    ]
    return ClusterSystem(
        shards=shards,
        shard_map=shard_map,
        scheduler=scheduler,
        shard_protocol=config.shard_protocol,
    )
