"""The sharded cluster layer: placement, routing, faults, scoped detection.

The load-bearing assertions here are the cluster's three cross-shard
proofs (ISSUE 3 acceptance):

* ``barrier()`` drains every touched shard;
* stability is aggregated per register partition (home-shard cuts);
* a forking shard is detected by exactly the clients that touched it,
  while honest shards keep completing operations — including for the
  detecting clients themselves.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import (
    CapabilityError,
    FailureNotification,
    FaustParams,
    OperationFailed,
    OperationTimeout,
    StabilityNotification,
    SystemConfig,
    open_system,
)
from repro.cluster.session import ClusterSession
from repro.cluster.system import ClusterSystem, register_owners
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.types import BOTTOM
from repro.sim.faults import Fault
from repro.sim.scheduler import Scheduler
from repro.ustor.byzantine import SplitBrainServer, TamperingServer, UnresponsiveServer
from repro.workloads.scenarios import split_brain_shard_scenario


def quiet_cluster(num_clients=4, shards=2, seed=5, **overrides) -> ClusterSystem:
    overrides.setdefault(
        "faust", FaustParams(enable_dummy_reads=False, enable_probes=False)
    )
    return open_system(
        SystemConfig(num_clients=num_clients, shards=shards, seed=seed, **overrides),
        backend="cluster",
    )


# --------------------------------------------------------------------- #
# Placement
# --------------------------------------------------------------------- #


class TestPlacement:
    def test_ranges_are_balanced_and_contiguous(self):
        owners = register_owners(8, 3)
        assert owners == (0, 0, 0, 1, 1, 1, 2, 2)  # first 8 % 3 shards: +1
        system = quiet_cluster(num_clients=8, shards=3)
        assert [system.shard_of(r) for r in range(8)] == list(owners)

    def test_out_of_space_registers_are_refused(self):
        system = quiet_cluster(num_clients=4, shards=2)
        with pytest.raises(ConfigurationError):
            system.shard_of(4)
        with pytest.raises(ConfigurationError):
            system.shard_of(-1)

    def test_empty_shards_are_refused(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=3, shards=5)


# --------------------------------------------------------------------- #
# Configuration plumbing
# --------------------------------------------------------------------- #


class TestClusterConfig:
    def test_single_server_backends_reject_shard_knobs(self):
        for backend in ("faust", "ustor"):
            with pytest.raises(ConfigurationError):
                open_system(SystemConfig(num_clients=4, shards=2), backend=backend)

    @pytest.mark.parametrize(
        "keyword, value",
        # build_deployment's seams: the simulator's three, the sockets' two.
        [
            ("scheduler", Scheduler()),
            ("latency_seed", 3),
            ("server_factory", lambda n, name: None),
            ("runtime", object()),
            ("connect_timeout", 1.0),
        ],
        ids=[
            "scheduler", "latency_seed", "server_factory", "runtime",
            "connect_timeout",
        ],
    )
    def test_placement_keywords_refused(self, keyword, value):
        # The cluster places its own shards; a per-test seam is refused by
        # name, before anything is built.
        with pytest.raises(ConfigurationError, match=keyword):
            open_system(
                SystemConfig(num_clients=4, shards=2),
                backend="cluster",
                **{keyword: value},
            )

    def test_config_validates_shard_axis(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=4, shards=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=4, shards=2, shard_protocol="lockstep")
        with pytest.raises(ConfigurationError):
            SystemConfig(
                num_clients=4,
                shards=2,
                server_outages=(Fault("down", (2, None), 5.0, 5.0),),
            )
        with pytest.raises(ConfigurationError):
            SystemConfig(
                num_clients=4,
                shards=2,
                server_outages=(Fault("down", (0, None), 5.0, 0.0),),
            )
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
                server_outages=(
                    Fault("down", None, 10.0, 10.0),
                    Fault("down", (1, None), 15.0, 5.0),
                ),
            )
        # Same windows on different shards are fine.
        quiet_cluster(
            num_clients=4,
            shards=2,
            storage="log",
            server_outages=(
                Fault("down", (0, None), 10.0, 10.0),
                Fault("down", (1, None), 15.0, 5.0),
            ),
        )

    def test_cluster_of_one_shard_is_permitted(self):
        system = quiet_cluster(num_clients=3, shards=1)
        assert system.num_shards == 1
        assert system.session(0).write_sync(b"x") == 1

    def test_stability_follows_shard_protocol(self):
        faust_session = quiet_cluster().session(0)
        t = faust_session.write_sync(b"x")
        assert len(faust_session.stability_cut) == 4
        faust_session.wait_for_stability(t, timeout=10)
        ustor_session = quiet_cluster(shard_protocol="ustor").session(0)
        t = ustor_session.write_sync(b"x")
        with pytest.raises(CapabilityError):
            _ = ustor_session.stability_cut
        with pytest.raises(CapabilityError):
            ustor_session.wait_for_stability(t, timeout=10)


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

    def test_trace_reads_the_shards_records(self):
        system = open_system(SystemConfig(num_clients=4, shards=2), backend="cluster")
        trace = system.trace
        records, per_shard = [], [[] for _ in system.shards]
        trace.tap(records.append)
        for shard, mine in zip(system.shards, per_shard):
            shard.trace.tap(mine.append)
        system.session(0).write_sync(b"hello")
        system.session(3).read_sync(0)
        # The cluster's tap sees every shard's records, each once.
        assert Counter(records) == Counter(m for mine in per_shard for m in mine)
        assert records
        assert trace.message_count() == len(records)
        assert trace.total_bytes() == sum(m.size for m in records)
        submits = [m for m in records if m.kind == "SUBMIT"]
        assert len(submits) == trace.message_count("SUBMIT") == sum(
            shard.trace.message_count("SUBMIT") for shard in system.shards
        ) > 0
        assert trace.total_bytes("SUBMIT") == sum(m.size for m in submits)

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
        system = open_system(
            SystemConfig(
                num_clients=3,
                shards=2,
                seed=9,
                faust=FaustParams(
                    delta=30.0, dummy_read_period=3.0, probe_check_period=5.0
                ),
            ),
            backend="cluster",
        )
        session = system.session(0)
        t = session.write_sync(b"document")
        assert session.wait_for_stability(t, timeout=400.0)
        assert session.stability_cut[0] >= t
        cuts = session.stability_cuts()
        assert session.home_shard in cuts

    def test_stability_events_carry_the_shard(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                shards=2,
                seed=9,
                faust=FaustParams(
                    delta=30.0, dummy_read_period=3.0, probe_check_period=5.0
                ),
            ),
            backend="cluster",
        )
        subscription = system.notifications.subscribe(kinds=StabilityNotification)
        session = system.session(0)
        t = session.write_sync(b"document")
        session.wait_for_stability(t, timeout=400.0)
        stability = subscription.events
        assert stability
        assert all(0 <= e.shard < 2 for e in stability)
        assert any(e.client == 0 and e.shard == session.home_shard for e in stability)

    def test_ustor_shards_have_no_stability_surface(self):
        system = quiet_cluster(shard_protocol="ustor")
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
            server_outages=(Fault("down", (1, None), 5.0, 10.0),),
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
            num_clients=4,
            shards=2,
            storage="log",
            server_outages=(Fault("down", None, 5.0, 5.0),),
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
        assert events and all(isinstance(e, FailureNotification) for e in events)
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
        system.faults.add(Fault("down", (0, None), 5.0, 5.0))
        # Overlapping, but on the other shard: ok.
        system.faults.add(Fault("down", (1, None), 7.0, 5.0))
        with pytest.raises(ValueError):  # same shard overlap
            system.faults.add(Fault("down", (0, None), 6.0, 2.0))
        with pytest.raises(ValueError):  # whole-cluster vs shard 0
            system.faults.add(Fault("down", None, 6.0, 2.0))
        system.run(until=6.0)
        assert system.servers[0].crashed and not system.servers[1].crashed
        system.run(until=8.0)
        assert system.servers[1].crashed
        system.run(until=13.0)
        assert not any(s.crashed for s in system.servers)

    def test_client_churn_pauses_every_shard_instance(self):
        system = open_system(
            SystemConfig(num_clients=4, shards=2, seed=13),
            backend="cluster",
        )
        system.faults.add(Fault("away", 1, 5.0, 20.0))
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

    def test_unbalanced_ranges_detect_exactly_too(self):
        result = split_brain_shard_scenario(
            num_clients=8, shards=3, forked_shards=(1,), seed=47,
            ops_per_client=8, run_for=400.0,
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

        system = open_system(
            SystemConfig(
                num_clients=4,
                seed=9,
                shards=2,
                latency=UniformLatency(0.5, 1.5),
                faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
            ),
            backend="cluster",
        )
        records = [[] for _ in system.shards]
        for shard, mine in zip(system.shards, records):
            shard.trace.tap(mine.append)
        for client in range(4):
            system.session(client).write_sync(b"x")
        samples = []
        for mine in records:
            samples.append([
                round(m.delivered_at - m.sent_at, 9)
                for m in mine
                if m.kind == "SUBMIT" and m.delivered_at is not None
            ])
        assert samples[0] and samples[1]
        assert samples[0] != samples[1]
