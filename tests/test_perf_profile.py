"""Tests of the repro.perf profiling harness."""

from __future__ import annotations

import json

from repro.api import SystemConfig, open_system
from repro.perf import (
    hot_path_cache_stats,
    reset_hot_path_caches,
    system_profile,
)
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
