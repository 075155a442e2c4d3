"""One count, one reader: ``repro.obs.health.deployment_counts``.

Every runtime count lives once, as an attribute on the object that
counts it; :func:`~repro.obs.health.deployment_counts` sums it over the
deployment's objects and :meth:`~repro.obs.health.HealthMonitor.refresh`
publishes the result into the registry.  These tests pin what is read
(every replica of every shard, not replica 0), when a name appears (only
when some object keeps it) and that the published registry agrees with
the attributes.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import OperationFailed, SystemConfig, open_system
from repro.obs.health import HealthMonitor, deployment_counts
from repro.obs.registry import Registry, get_registry, use_registry
from repro.perf import hot_path_cache_stats, reset_hot_path_caches
from repro.sim.faults import Fault
from repro.ustor.byzantine import TamperingServer


class TestPublishedRegistry:
    def test_refresh_publishes_the_counts_when_enabled(self):
        with use_registry(Registry()) as registry:
            system = open_system(SystemConfig(num_clients=2, seed=5), backend="ustor")
            system.session(0).write_sync(b"v")
            counts = HealthMonitor(system).refresh()
            snapshot = registry.snapshot()
            assert snapshot["ustor.server.submits"] == 1
            assert snapshot["ustor.server.submits"] == counts["ustor.server.submits"]
        system = open_system(SystemConfig(num_clients=2, seed=5), backend="ustor")
        HealthMonitor(system).refresh()
        assert get_registry().snapshot() == {}

    def test_a_count_is_as_fresh_as_the_last_refresh(self):
        with use_registry(Registry()) as registry:
            system = open_system(SystemConfig(num_clients=2, seed=5), backend="ustor")
            monitor = HealthMonitor(system)
            system.session(0).write_sync(b"v")
            assert registry.get("ustor.server.submits") is None
            monitor.refresh()
            system.session(1).write_sync(b"w")
            assert registry.get("ustor.server.submits").value == 1
            monitor.refresh()
            assert registry.get("ustor.server.submits").value == 2


class TestDeploymentCounts:
    def test_raw_storage_system(self):
        system = open_system(SystemConfig(num_clients=2, seed=5), backend="ustor")
        system.clients[0].write(b"v")
        system.run_until_quiescent()
        counts = deployment_counts(system)
        assert counts["scheduler.events_processed"] > 0
        assert counts["clients.completed_operations"] >= 1
        assert counts["ustor.server.submits"] >= 1
        assert "crypto.verification_cache.hits" in counts
        assert "hot_path.digest_chain.hits" in counts
        json.dumps(counts)

    def test_faust_deployment(self):
        system = open_system(SystemConfig(num_clients=2, seed=3), backend="faust")
        system.session(0).write_sync(b"x")
        counts = deployment_counts(system)
        assert counts["clients.completed_operations"] >= 1
        assert counts["ustor.server.submits"] == system.server.submits_handled

    def test_cluster_counts_aggregate_shards(self):
        cluster = open_system(
            SystemConfig(num_clients=4, seed=9, shards=2), backend="cluster"
        )
        session = cluster.session(0)
        session.write_sync(b"y")
        session.barrier()
        counts = deployment_counts(cluster)
        assert counts["ustor.server.submits"] >= 1
        assert counts["clients.completed_operations"] >= 1
        json.dumps(counts)


class TestCountsPresence:
    """A name appears exactly when some object of the deployment keeps
    it, and the counts agree with the run."""

    def test_batched_system_counts_group_commits_and_bursts(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=3, batching=True), backend="faust"
        )
        for session in system.sessions():
            session.write(b"w")
        system.sessions()[0].barrier()
        system.sessions()[1].barrier()
        counts = deployment_counts(system)
        assert counts["ustor.server.group_commits"] >= 1
        assert counts["ustor.server.largest_group_commit"] >= 1
        assert counts["sim.network.bursts_formed"] >= 1
        json.dumps(counts)

    def test_unbatched_memory_system_has_no_wal_or_socket_counts(self):
        system = open_system(SystemConfig(num_clients=2, seed=3), backend="faust")
        system.session(0).write_sync(b"w")
        counts = deployment_counts(system)
        assert counts["ustor.server.group_commits"] == 0
        assert counts["ustor.server.largest_group_commit"] == 0
        assert counts["sim.network.bursts_formed"] == 0
        assert "store.wal_appends" not in counts
        assert not any(name.startswith("net.") for name in counts)

    def test_server_restart_is_counted(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=3,
                storage="log",
                server_outages=(Fault("down", None, 5.0, 5.0),),
            ),
            backend="faust",
        )
        assert deployment_counts(system)["ustor.server.restarts"] == 0
        system.run(until=20.0)
        assert deployment_counts(system)["ustor.server.restarts"] == 1

    def test_crashed_client_is_counted(self):
        system = open_system(SystemConfig(num_clients=3, seed=3), backend="ustor")
        system.clients[2].crash()
        counts = deployment_counts(system)
        clients = {k: v for k, v in counts.items() if k.startswith("clients.")}
        assert clients == {
            "clients.completed_operations": 0,
            "clients.failed": 0,
            "clients.crashed": 1,
        }

    def test_failed_client_is_counted(self):
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=7,
                server_factory=lambda n, name: TamperingServer(n, 0, name=name),
            ),
            backend="ustor",
        )
        system.session(0).write_sync(b"genuine")
        with pytest.raises(OperationFailed):
            system.session(1).read_sync(0)
        assert deployment_counts(system)["clients.failed"] == 1

    def test_counts_read_the_reset_caches(self):
        system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
        system.clients[0].write(b"v")
        system.run_until_quiescent()
        reset_hot_path_caches()
        counts = deployment_counts(system)
        for cache, stats in hot_path_cache_stats().items():
            for key, value in stats.items():
                assert counts[f"hot_path.{cache}.{key}"] == value
        assert counts["hot_path.digest_chain.hits"] == 0
        assert counts["hot_path.digest_chain.misses"] == 0

    def test_counts_survive_a_json_round_trip(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=3, batching=True), backend="faust"
        )
        system.session(0).write_sync(b"w")
        counts = deployment_counts(system)
        assert json.loads(json.dumps(counts)) == counts


class TestClusterCounts:
    def _cluster(self):
        cluster = open_system(
            SystemConfig(num_clients=4, seed=9, shards=2), backend="cluster"
        )
        for register in range(4):
            cluster.session(register).write_sync(b"z")
        return cluster

    def test_aggregate_is_the_sum_of_the_shards(self):
        cluster = self._cluster()
        counts = deployment_counts(cluster)
        shards = [deployment_counts(shard) for shard in cluster.shards]
        for key in (
            "ustor.server.submits",
            "ustor.server.commits",
            "clients.completed_operations",
        ):
            assert counts[key] == sum(shard[key] for shard in shards)
        assert counts["clients.completed_operations"] >= 4

    def test_cluster_counts_carry_the_caches(self):
        counts = deployment_counts(self._cluster())
        assert counts["hot_path.digest_chain.hits"] == (
            hot_path_cache_stats()["digest_chain"]["hits"]
        )

    def test_cluster_refresh_publishes_when_enabled(self):
        with use_registry(Registry()) as registry:
            cluster = self._cluster()
            HealthMonitor(cluster).refresh()
            assert registry.get("ustor.server.submits").value >= 4
        HealthMonitor(self._cluster()).refresh()
        assert get_registry().snapshot() == {}


class TestHotPathCacheStats:
    def test_stats_shape_and_reset(self):
        from repro.common.encoding import encode
        from repro.ustor.digests import extend_digest

        reset_hot_path_caches()
        encode("PROBE", 17)
        extend_digest(None, 1)
        extend_digest(None, 1)  # second call is a memo hit
        stats = hot_path_cache_stats()
        assert stats["encoding"]["misses"] >= 1
        assert stats["digest_chain"] == {"hits": 1, "misses": 1}
        reset_hot_path_caches()
        cleared = hot_path_cache_stats()
        assert cleared["digest_chain"] == {"hits": 0, "misses": 0}
        assert cleared["encoding"]["misses"] == 0


class TestOneCount:
    """Each published count is its attribute summed over every replica
    server, network and engine — never replica 0 alone."""

    def test_published_counts_sum_every_replica(self):
        with use_registry(Registry()) as registry:
            system = open_system(
                SystemConfig(
                    num_clients=3,
                    seed=1,
                    shards=2,
                    replicas=3,
                    batching=True,
                    storage="log",
                ),
                backend="cluster",
            )
            with system:
                for client in range(3):
                    system.session(client).write_sync(b"v")
                system.run(until=system.now + 50.0)
                HealthMonitor(system).refresh()
                servers = [s for shard in system.shards for s in shard.replica_servers]
                assert len(servers) == 6
                networks = [shard.network for shard in system.shards]
                expected = {
                    "ustor.server.submits": sum(s.submits_handled for s in servers),
                    "ustor.server.commits": sum(s.commits_handled for s in servers),
                    "ustor.server.group_commits": sum(s.group_commits for s in servers),
                    "ustor.server.restarts": sum(s.restarts for s in servers),
                    "store.wal_appends": sum(s.engine.wal_appends for s in servers),
                    "sim.network.bursts_formed": sum(n.bursts_formed for n in networks),
                    "sim.network.messages_coalesced": sum(
                        n.messages_coalesced for n in networks
                    ),
                }
                for name, value in expected.items():
                    assert registry.get(name).value == value, name
                assert expected["ustor.server.submits"] > sum(
                    shard.server.submits_handled for shard in system.shards
                )

    def test_a_down_replica_restart_is_published(self):
        with use_registry(Registry()) as registry:
            system = open_system(
                SystemConfig(
                    num_clients=2,
                    seed=3,
                    replicas=3,
                    storage="log",
                    server_outages=(Fault("down", (0, 1), 5.0, 5.0),),
                ),
                backend="ustor",
            )
            with system:
                system.run(until=20.0)
                HealthMonitor(system).refresh()
                assert registry.get("ustor.server.restarts").value == 1
                assert [s.restarts for s in system.replica_servers] == [0, 1, 0]


@pytest.mark.net
class TestServerHostScrape:
    def test_host_metrics_publish_its_own_server(self):
        from repro.net.client import NetRuntime
        from repro.net.server import NetServerHost

        with use_registry(Registry()):
            runtime = NetRuntime()
            host = NetServerHost(2, metrics_port=0)
            runtime.run_coroutine(host.start())
            system = open_system(
                SystemConfig(
                    2,
                    transport="tcp",
                    endpoints=(host.endpoint,),
                    default_timeout=10.0,
                ),
                backend="ustor",
                runtime=runtime,
            )
            system.hosts.append(host)
            system.owns_runtime = True
            with system:
                for client in range(2):
                    system.session(client).write_sync(b"v")

                async def scrape() -> str:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", host.metrics_server.port
                    )
                    writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    return raw.decode()

                body = runtime.run_coroutine(scrape())
                submits = host.node.submits_handled
                assert submits >= 2
                assert f"\nrepro_ustor_server_submits_total {submits}\n" in body
