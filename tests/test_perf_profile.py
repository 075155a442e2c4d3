"""Tests of the repro.perf profiling harness."""

from __future__ import annotations

import json

import pytest

from repro.api import OperationFailed, SystemConfig, open_system
from repro.perf import (
    hot_path_cache_stats,
    reset_hot_path_caches,
    system_profile,
)
from repro.ustor.byzantine import TamperingServer
from repro.workloads.runner import SystemBuilder


class TestProfilerObsMirror:
    def test_system_profile_includes_obs_section_when_enabled(self):
        from repro.obs.registry import Registry, use_registry

        with use_registry(Registry()) as registry:
            system = SystemBuilder(num_clients=2, seed=5).build()
            registry.counter("probe").inc()
            profile = system.profile()
            assert profile["obs"]["probe"] == 1
        assert "obs" not in SystemBuilder(num_clients=2, seed=5).build().profile()


class TestSystemProfile:
    def test_raw_storage_system(self):
        system = SystemBuilder(num_clients=2, seed=5).build()
        system.clients[0].write(b"v")
        system.run_until_quiescent()
        profile = system.profile()
        assert profile["kind"] == "single"
        assert profile["scheduler"]["events_processed"] > 0
        assert profile["clients"]["completed_operations"] >= 1
        assert profile["server"]["submits_handled"] >= 1
        assert "verification_cache" in profile
        assert "hot_path_caches" in profile
        json.dumps(profile)

    def test_api_system_carries_backend(self):
        system = open_system(SystemConfig(num_clients=2, seed=3), backend="faust")
        session = system.session(0)
        session.write_sync(b"x")
        profile = system.profile()
        assert profile["backend"] == "faust"
        assert profile["kind"] == "single"

    def test_cluster_profile_aggregates_shards(self):
        cluster = open_system(
            SystemConfig(num_clients=4, seed=9, shards=2), backend="cluster"
        )
        session = cluster.session(0)
        session.write_sync(b"y")
        session.barrier()
        profile = cluster.profile()
        assert profile["kind"] == "cluster"
        assert profile["num_shards"] == 2
        assert len(profile["shards"]) == 2
        assert profile["server"]["submits_handled"] >= 1
        assert profile["clients"]["completed_operations"] >= 1
        json.dumps(profile)


class TestProfileSections:
    """The optional sections appear exactly when the deployment runs the
    machinery they count, and the counters agree with the run."""

    def test_batched_system_reports_group_commit_and_bursts(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=3, batching=True), backend="faust"
        )
        for session in system.sessions():
            session.write(b"w")
        system.sessions()[0].barrier()
        system.sessions()[1].barrier()
        profile = system.profile()
        assert profile["server"]["group_commits"] >= 1
        assert profile["server"]["largest_group_commit"] >= 1
        assert profile["transport_batching"]["bursts_formed"] >= 1
        json.dumps(profile)

    def test_unbatched_system_omits_batching_sections(self):
        system = open_system(SystemConfig(num_clients=2, seed=3), backend="faust")
        system.session(0).write_sync(b"w")
        profile = system.profile()
        assert "group_commits" not in profile["server"]
        assert "largest_group_commit" not in profile["server"]
        assert "transport_batching" not in profile

    def test_server_restart_is_counted(self):
        system = open_system(
            SystemConfig(
                num_clients=2, seed=3, storage="log", server_outages=((5.0, 5.0),)
            ),
            backend="faust",
        )
        assert system.profile()["server"]["restarts"] == 0
        system.run(until=20.0)
        assert system.profile()["server"]["restarts"] == 1

    def test_crashed_client_is_counted(self):
        system = open_system(SystemConfig(num_clients=3, seed=3), backend="ustor")
        system.clients[2].crash()
        clients = system.profile()["clients"]
        assert clients == {
            "count": 3,
            "completed_operations": 0,
            "failed": 0,
            "crashed": 1,
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
        assert system.profile()["clients"]["failed"] == 1

    def test_profile_counts_the_reset_caches(self):
        system = SystemBuilder(num_clients=2, seed=1).build()
        system.clients[0].write(b"v")
        system.run_until_quiescent()
        reset_hot_path_caches()
        caches = system.profile()["hot_path_caches"]
        assert caches == hot_path_cache_stats()
        assert caches["digest_chain"] == {"hits": 0, "misses": 0}

    def test_profile_survives_a_json_round_trip(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=3, batching=True), backend="faust"
        )
        system.session(0).write_sync(b"w")
        profile = system.profile()
        assert json.loads(json.dumps(profile)) == profile


class TestClusterProfile:
    def _cluster(self):
        cluster = open_system(
            SystemConfig(num_clients=4, seed=9, shards=2), backend="cluster"
        )
        for register in range(4):
            cluster.session(register).write_sync(b"z")
        return cluster

    def test_aggregate_is_the_sum_of_the_shards(self):
        profile = self._cluster().profile()
        for key in ("submits_handled", "commits_handled"):
            assert profile["server"][key] == sum(
                shard["server"][key] for shard in profile["shards"]
            )
        assert profile["clients"]["completed_operations"] >= 4

    def test_cluster_profile_carries_backend_and_caches(self):
        profile = self._cluster().profile()
        assert profile["backend"] == "cluster"
        assert profile["hot_path_caches"] == hot_path_cache_stats()
        assert all(shard["clients"]["count"] == 4 for shard in profile["shards"])

    def test_cluster_profile_includes_obs_section_when_enabled(self):
        from repro.obs.registry import Registry, use_registry

        with use_registry(Registry()) as registry:
            cluster = self._cluster()
            registry.counter("probe").inc()
            assert cluster.profile()["obs"]["probe"] == 1
        assert "obs" not in self._cluster().profile()


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

    def test_system_profile_accepts_raw_and_wrapped(self):
        system = SystemBuilder(num_clients=2, seed=1).build()
        assert system_profile(system)["kind"] == "single"
