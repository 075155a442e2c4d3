"""The sharded cluster layer: maps, routing, faults, scoped detection.

The load-bearing assertions here are the cluster's three cross-shard
proofs (ISSUE 3 acceptance):

* ``barrier()`` drains every touched shard;
* stability is aggregated per register partition (home-shard cuts);
* a forking shard is detected by exactly the clients that touched it,
  while honest shards keep completing operations — including for the
  detecting clients themselves.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CapabilityError,
    ClusterBackend,
    FaustParams,
    OperationFailed,
    OperationTimeout,
    SystemConfig,
    open_system,
)
from repro.cluster import (
    ClusterSession,
    ClusterSystem,
    HashShardMap,
    RangeShardMap,
    ShardFailureNotification,
    ShardStabilityNotification,
    make_shard_map,
)
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.types import BOTTOM
from repro.ustor.byzantine import SplitBrainServer, TamperingServer, UnresponsiveServer
from repro.workloads.churn import ChurnSchedule
from repro.workloads.scenarios import split_brain_shard_scenario


def quiet_cluster(num_clients=4, shards=2, seed=5, **overrides) -> ClusterSystem:
    overrides.setdefault(
        "faust", FaustParams(enable_dummy_reads=False, enable_probes=False)
    )
    return ClusterBackend().open_system(
        SystemConfig(num_clients=num_clients, shards=shards, seed=seed, **overrides)
    )


# --------------------------------------------------------------------- #
# Shard maps
# --------------------------------------------------------------------- #


class TestShardMaps:
    def test_range_map_is_balanced_and_contiguous(self):
        shard_map = RangeShardMap(num_shards=3, num_registers=8)
        owners = [shard_map.shard_of(r) for r in range(8)]
        assert owners == sorted(owners)  # contiguous ranges
        partitions = shard_map.partition(8)
        sizes = [len(p) for p in partitions]
        assert sum(sizes) == 8 and max(sizes) - min(sizes) <= 1

    def test_range_map_rejects_out_of_space_registers(self):
        shard_map = RangeShardMap(num_shards=2, num_registers=4)
        with pytest.raises(ConfigurationError):
            shard_map.shard_of(4)
        with pytest.raises(ConfigurationError):
            shard_map.shard_of(-1)

    def test_range_map_rejects_empty_shards(self):
        with pytest.raises(ConfigurationError):
            RangeShardMap(num_shards=5, num_registers=3)

    def test_hash_map_is_deterministic_and_total(self):
        a = HashShardMap(num_shards=4)
        b = HashShardMap(num_shards=4)
        owners = [a.shard_of(r) for r in range(64)]
        assert owners == [b.shard_of(r) for r in range(64)]
        assert all(0 <= s < 4 for s in owners)
        assert len(set(owners)) > 1  # spreads over shards

    def test_hash_map_placement_independent_of_population(self):
        # Consistent hashing: growing the register space never moves an
        # existing register.
        shard_map = HashShardMap(num_shards=3)
        small = [shard_map.shard_of(r) for r in range(10)]
        large = [shard_map.shard_of(r) for r in range(100)]
        assert large[:10] == small

    def test_make_shard_map_resolves_and_validates(self):
        assert isinstance(make_shard_map("range", 2, 4), RangeShardMap)
        assert isinstance(make_shard_map("hash", 2, 4), HashShardMap)
        ready = HashShardMap(num_shards=2)
        assert make_shard_map(ready, 2, 4) is ready
        with pytest.raises(ConfigurationError):
            make_shard_map(ready, 3, 4)  # shard-count mismatch
        with pytest.raises(ConfigurationError):
            make_shard_map("mod", 2, 4)


# --------------------------------------------------------------------- #
# Configuration plumbing
# --------------------------------------------------------------------- #


class TestClusterConfig:
    def test_single_server_backends_reject_shard_knobs(self):
        for backend in ("faust", "ustor", "lockstep", "unchecked"):
            with pytest.raises(ConfigurationError):
                open_system(SystemConfig(num_clients=4, shards=2), backend=backend)

    def test_config_validates_shard_axis(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=4, shards=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=4, shards=2, shard_protocol="lockstep")
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=4, shards=2, shard_outages=((2, 5.0, 5.0),))
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=4, shards=2, shard_outages=((0, 5.0, 0.0),))
        with pytest.raises(ConfigurationError):
            SystemConfig(
                num_clients=4,
                shards=2,
                shard_server_factories={3: lambda n, name: None},
            )

    def test_cluster_rejects_more_shards_than_registers(self):
        # Refused where the config is made, before any backend is chosen.
        with pytest.raises(ConfigurationError, match="owning nothing"):
            SystemConfig(num_clients=2, shards=3)
        assert SystemConfig(num_clients=3, shards=3).shards == 3

    def test_cluster_rejects_overlapping_windows_per_shard(self):
        with pytest.raises(ConfigurationError, match="shard 1"):
            quiet_cluster(
                num_clients=4,
                shards=2,
                storage="log",
                server_outages=((10.0, 10.0),),
                shard_outages=((1, 15.0, 5.0),),
            )
        # Same windows on different shards are fine.
        quiet_cluster(
            num_clients=4,
            shards=2,
            storage="log",
            shard_outages=((0, 10.0, 10.0), (1, 15.0, 5.0)),
        )

    def test_cluster_of_one_shard_is_permitted(self):
        system = quiet_cluster(num_clients=3, shards=1)
        assert system.num_shards == 1
        assert system.session(0).write_sync(b"x") == 1

    def test_capabilities_follow_shard_protocol(self):
        faust_cluster = quiet_cluster()
        assert faust_cluster.capabilities.stability
        ustor_cluster = quiet_cluster(shard_protocol="ustor", shard_map="hash")
        assert not ustor_cluster.capabilities.stability
        with pytest.raises(CapabilityError):
            ustor_cluster.require("stability")


# --------------------------------------------------------------------- #
# Routing, sessions, barrier
# --------------------------------------------------------------------- #


class TestClusterSessions:
    def test_cross_shard_roundtrip(self):
        system = quiet_cluster(num_clients=4, shards=2)
        alice, dora = system.session(0), system.session(3)
        assert alice.home_shard != dora.home_shard
        alice.write_sync(b"hello")
        value, _ = dora.read_sync(0)  # read crosses to alice's shard
        assert value == b"hello"
        value, _ = alice.read_sync(3)
        assert value is BOTTOM

    def test_sessions_are_cached_per_client(self):
        system = quiet_cluster()
        assert system.session(1) is system.session(1)
        dedicated = system.session(1, timeout=5.0)
        assert dedicated is not system.session(1)
        assert isinstance(dedicated, ClusterSession)

    def test_barrier_drains_every_touched_shard(self):
        system = quiet_cluster(num_clients=4, shards=2)
        session = system.session(1)
        handles = [session.write(b"w%d" % i) for i in range(3)]
        handles.append(session.read(3))  # second shard
        handles.append(session.read(0))
        assert session.outstanding == 5
        assert len(session.touched_shards) == 2
        session.barrier()
        assert session.outstanding == 0
        assert all(h.done() for h in handles)
        stamps = [h.result().timestamp for h in handles[:3]]
        assert stamps == sorted(stamps) and len(set(stamps)) == 3

    def test_barrier_with_zero_inflight_is_a_noop(self):
        system = quiet_cluster()
        session = system.session(0)
        session.barrier()  # nothing issued at all
        session.write_sync(b"x")
        session.barrier()  # nothing left in flight
        assert session.outstanding == 0

    def test_barrier_timeout_names_the_stuck_shard(self):
        # Shard 1's server ignores every client; shard 0 stays honest.
        system = quiet_cluster(
            num_clients=4,
            shards=2,
            shard_server_factories={
                1: lambda n, name: UnresponsiveServer(
                    n, victims=set(range(n)), name=name
                )
            },
        )
        session = system.session(0)
        session.write(b"fine")  # shard 0
        session.read(3)  # shard 1 — never answered
        with pytest.raises(OperationTimeout, match=r"shard\(s\) \[1\]"):
            session.barrier(timeout=50.0)
        # The honest shard's operation completed regardless.
        assert session.shard_session(0).outstanding == 0

    def test_barrier_short_circuits_on_a_crashed_client(self):
        system = quiet_cluster(num_clients=4, shards=2)
        session = system.session(0)
        session.write(b"w")
        system.clients[0].crash()
        with pytest.raises(OperationFailed, match="crashed"):
            session.barrier(timeout=10_000.0)
        # The barrier must not burn the whole budget of virtual time
        # waiting on handles that can never settle.
        assert system.now < 100.0

    def test_shard_indices_are_validated(self):
        system = quiet_cluster(num_clients=4, shards=2)
        with pytest.raises(ConfigurationError):
            system.session(0).shard_session(-1)
        with pytest.raises(ConfigurationError):
            system.session(0).shard_session(2)
        with pytest.raises(ConfigurationError):
            system.clients[0].instance(-1)
        with pytest.raises(ConfigurationError):
            system.shard_of(-1)
        with pytest.raises(ConfigurationError):
            system.shard_of(4)

    def test_proxy_clients_route_like_sessions(self):
        system = quiet_cluster(num_clients=4, shards=2)
        results = []
        system.clients[0].write(b"via-proxy", results.append)
        system.run_until(lambda: bool(results), timeout=100.0)
        assert results[0].value == b"via-proxy"
        reads = []
        system.clients[3].read(0, reads.append)
        system.run_until(lambda: bool(reads), timeout=100.0)
        assert reads[0].value == b"via-proxy"
        assert system.touched_shards(3) == (0,)

    def test_cluster_history_is_per_shard(self):
        system = quiet_cluster(num_clients=4, shards=2)
        system.session(0).write_sync(b"x")
        system.session(2).write_sync(b"y")
        with pytest.raises(CapabilityError):
            system.history()
        histories = system.shard_histories()
        assert set(histories) == {0, 1}
        assert all(len(h.operations) == 1 for h in histories.values())


# --------------------------------------------------------------------- #
# Stability across partitions
# --------------------------------------------------------------------- #


class TestClusterStability:
    def test_home_shard_stability_with_background_machinery(self):
        system = ClusterBackend().open_system(
            SystemConfig(
                num_clients=3,
                shards=2,
                seed=9,
                faust=FaustParams(
                    delta=30.0, dummy_read_period=3.0, probe_check_period=5.0
                ),
            )
        )
        session = system.session(0)
        t = session.write_sync(b"document")
        assert session.wait_for_stability(t, timeout=400.0)
        assert session.stability_cut[0] >= t
        cuts = session.stability_cuts()
        assert session.home_shard in cuts

    def test_stability_events_carry_the_shard(self):
        system = ClusterBackend().open_system(
            SystemConfig(
                num_clients=3,
                shards=2,
                seed=9,
                faust=FaustParams(
                    delta=30.0, dummy_read_period=3.0, probe_check_period=5.0
                ),
            )
        )
        session = system.session(0)
        t = session.write_sync(b"document")
        session.wait_for_stability(t, timeout=400.0)
        stability = [
            e
            for e in system.notifications.history
            if isinstance(e, ShardStabilityNotification)
        ]
        assert stability
        assert all(0 <= e.shard < 2 for e in stability)
        assert any(e.client == 0 and e.shard == session.home_shard for e in stability)

    def test_ustor_shards_have_no_stability_surface(self):
        system = quiet_cluster(shard_protocol="ustor", shard_map="hash")
        session = system.session(0)
        session.write_sync(b"x")
        with pytest.raises(CapabilityError):
            _ = session.stability_cut


# --------------------------------------------------------------------- #
# Per-shard faults
# --------------------------------------------------------------------- #


class TestShardFaults:
    def test_single_shard_outage_recovers_without_failures(self):
        system = quiet_cluster(
            num_clients=4,
            shards=2,
            storage="log",
            shard_outages=((1, 5.0, 10.0),),
        )
        session = system.session(2)  # home shard 1 — the one that crashes
        system.run(until=6.0)  # the shard is now down
        assert system.servers[1].crashed and not system.servers[0].crashed
        handle = session.write(b"held")  # held by the reliable channel
        # The honest shard keeps serving while shard 1 is down.
        assert system.session(0).write_sync(b"fine") == 1
        assert handle.result(timeout=100.0).value == b"held"
        assert system.now >= 15.0  # only completed after recovery
        assert not system.notifications.failure_events()

    def test_whole_cluster_outage_hits_every_shard(self):
        system = quiet_cluster(
            num_clients=4, shards=2, storage="log", server_outages=((5.0, 5.0),)
        )
        system.run(until=6.0)
        assert all(server.crashed for server in system.servers)
        system.run(until=11.0)
        assert not any(server.crashed for server in system.servers)

    def test_tampering_shard_fails_only_its_readers(self):
        system = quiet_cluster(
            num_clients=4,
            shards=2,
            shard_server_factories={
                0: lambda n, name: TamperingServer(n, 0, name=name)
            },
        )
        writer, victim, bystander = (
            system.session(0),
            system.session(1),
            system.session(2),
        )
        writer.write_sync(b"genuine")
        with pytest.raises(OperationFailed):
            victim.read_sync(0)
        assert victim.failed and victim.failed_shards == (0,)
        # The bystander only ever uses shard 1 and stays clean.
        bystander.write_sync(b"clean")
        assert not bystander.failed
        events = system.notifications.failure_events()
        assert events and all(isinstance(e, ShardFailureNotification) for e in events)
        assert all(e.shard == 0 for e in events)

    def test_touching_an_already_failed_shard_notifies_immediately(self):
        system = quiet_cluster(
            num_clients=4,
            shards=2,
            shard_server_factories={
                0: lambda n, name: TamperingServer(n, 0, name=name)
            },
        )
        system.session(0).write_sync(b"genuine")
        with pytest.raises(OperationFailed):
            system.session(1).read_sync(0)
        # Let the FAILURE alert reach every instance on the bad shard.
        system.run(until=system.now + 50.0)
        before = {e.client for e in system.notifications.failure_events()}
        assert 3 not in before
        # Client 3's first contact with the shard is *after* its own
        # instance already learned of the failure via the FAILURE alert:
        # the op is rejected and the notification fires at touch time.
        with pytest.raises((OperationFailed, ProtocolError)):
            system.session(3).read_sync(1)
        after = {e.client for e in system.notifications.failure_events()}
        assert 3 in after

    def test_detecting_client_keeps_using_honest_shards(self):
        system = quiet_cluster(
            num_clients=4,
            shards=2,
            shard_server_factories={
                1: lambda n, name: TamperingServer(n, 2, name=name)
            },
        )
        system.session(2).write_sync(b"poisoned")
        session = system.session(0)
        session.write_sync(b"pre")  # shard 0, fine
        with pytest.raises(OperationFailed):
            session.read_sync(2)  # shard 1 tampers
        assert session.failed and session.failed_shards == (1,)
        # Operations on the honest home shard still complete.
        assert session.write_sync(b"post") == 2
        value, _ = system.session(1).read_sync(0)
        assert value == b"post"


# --------------------------------------------------------------------- #
# Cluster churn
# --------------------------------------------------------------------- #


class TestClusterChurn:
    def test_shard_targeted_churn_windows(self):
        system = quiet_cluster(
            num_clients=4, shards=2, seed=11, storage="log"
        )
        churn = ChurnSchedule(system)
        churn.add_server_outage(5.0, 5.0, shard=0)
        churn.add_server_outage(7.0, 5.0, shard=1)  # overlap, other shard: ok
        with pytest.raises(ValueError):
            churn.add_server_outage(6.0, 2.0, shard=0)  # same shard overlap
        with pytest.raises(ValueError):
            churn.add_server_outage(6.0, 2.0)  # whole-cluster vs shard 0
        system.run(until=6.0)
        assert system.servers[0].crashed and not system.servers[1].crashed
        system.run(until=8.0)
        assert system.servers[1].crashed
        system.run(until=13.0)
        assert not any(s.crashed for s in system.servers)

    def test_shard_churn_requires_a_cluster(self):
        from repro.api import FaustBackend

        single = FaustBackend().open_system(
            SystemConfig(
                num_clients=2,
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            )
        )
        churn = ChurnSchedule(single)
        with pytest.raises(ValueError):
            churn.add_server_outage(5.0, 5.0, shard=0)

    def test_client_churn_pauses_every_shard_instance(self):
        system = ClusterBackend().open_system(
            SystemConfig(num_clients=4, shards=2, seed=13)
        )
        churn = ChurnSchedule(system)
        churn.add_window(client=1, start=5.0, duration=20.0)
        system.run(until=10.0)
        proxy = system.clients[1]
        assert all(inst._dummy_timer is None for inst in proxy.instances)
        assert not system.offline.is_online(proxy.name)
        system.run(until=30.0)
        assert system.offline.is_online(proxy.name)
        assert all(inst._dummy_timer is not None for inst in proxy.instances)


# --------------------------------------------------------------------- #
# The acceptance scenario (ISSUE 3)
# --------------------------------------------------------------------- #


class TestSplitBrainShardScenario:
    def test_forked_shard_detected_by_exactly_its_users(self):
        result = split_brain_shard_scenario(
            num_clients=6, shards=4, forked_shards=(1,), seed=41
        )
        # Both populations are non-trivial.
        assert result.avoiders and result.expected_detectors
        # 1. Every client that touched the forked shard was notified.
        # 2. No client that avoided it was.
        assert result.exact_detection
        assert not (result.failed_clients & result.avoiders)
        # 3. Honest-shard operations completed normally.
        assert result.stats.all_done(result.avoiders)
        # The notifications name the forked shard, and the fork was found
        # quickly after it happened.
        failures = result.failures
        assert failures and {e.shard for e in failures} == {1}
        assert 0.0 <= result.detection_latency < 200.0

    def test_every_forked_shard_is_reported_separately(self):
        result = split_brain_shard_scenario(
            num_clients=6, shards=4, forked_shards=(1, 2), seed=43
        )
        assert result.exact_detection
        reported = {e.shard for e in result.system.notifications.failure_events()}
        assert reported <= {1, 2} and reported

    def test_hash_map_variant_detects_exactly_too(self):
        result = split_brain_shard_scenario(
            num_clients=8, shards=3, forked_shards=(1,), seed=47,
            shard_map="hash", ops_per_client=8, run_for=400.0,
        )
        assert result.exact_detection
        assert result.stats.all_done(result.avoiders)


class TestShardSeedDerivation:
    """Regression: shards must not share RNG streams (ISSUE 8 bugfix —
    ``seed=config.seed`` verbatim gave every shard correlated
    "randomness")."""

    def test_sub_seeds_are_distinct_and_collision_safe(self):
        from repro.cluster.backend import derive_shard_seed

        seeds = {derive_shard_seed(seed, shard)
                 for seed in range(8) for shard in range(8)}
        assert len(seeds) == 64  # notably: (0, 1) != (1, 0)

    def test_shards_draw_distinct_latency_samples(self):
        # Two identically-configured shards carrying identically-shaped
        # traffic (one write per client) must sample *different* message
        # latencies; with the old shared stream they drew in lockstep.
        from repro.sim.network import UniformLatency

        system = ClusterBackend().open_system(
            SystemConfig(
                num_clients=4,
                seed=9,
                shards=2,
                latency=UniformLatency(0.5, 1.5),
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            )
        )
        for client in range(4):
            system.session(client).write_sync(b"x")
        samples = []
        for shard in system.shards:
            samples.append([
                round(m.delivered_at - m.sent_at, 9)
                for m in shard.trace.messages
                if m.kind == "SUBMIT" and m.delivered_at is not None
            ])
        assert samples[0] and samples[1]
        assert samples[0] != samples[1]
