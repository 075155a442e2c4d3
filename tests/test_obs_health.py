"""Health gauges and detection-latency scenarios (``repro.obs.health``).

Unit tests pin the stability-lag and time-to-detection arithmetic on
stub clients; the scenario tests run real Byzantine deployments — the
rollback adversary under FAUST and a targeted tampering server under
bare USTOR, on both the simulator and a TCP loopback — and assert the
``health.time_to_detection`` gauge agrees with the
:class:`~repro.api.events.FailureNotification` timestamps the hub saw.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FailureNotification, SystemConfig, open_system
from repro.api.events import NotificationHub
from repro.obs.health import HealthMonitor
from repro.obs.registry import Registry, use_registry
from repro.ustor.byzantine import RollbackServer, SplitBrainServer, TamperingServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


class _Version:
    def __init__(self, vector):
        self.vector = list(vector)


class _StubClient:
    """Just enough client surface for the monitor: a version vector."""

    def __init__(self, vector=()):
        self.version = _Version(vector)


class _StubTracker:
    def __init__(self, stable):
        self._stable = stable

    def stable_timestamp_for_all(self):
        return self._stable


class _StubKeyStore:
    def verification_cache_stats(self):
        return {"hits": 0, "misses": 0, "size": 0}


class _StubSystem:
    """Just enough deployment for the monitor: one shard (itself) with its
    clients, server (its one replica), network and keystore, a clock and
    a notification hub."""

    def __init__(self, clients, now=0.0, server=None):
        self.clients = list(clients)
        self.shards = [self]
        self.server = server
        self.replica_servers = [server] if server is not None else []
        self.network = None
        self.keystore = _StubKeyStore()
        self.now = now
        self.notifications = NotificationHub()

    def fail(self, client, reason):
        self.notifications.emit_failure(self.now, client, reason)


class TestStabilityLags:
    def test_ustor_proxy_is_min_over_vectors(self):
        # C0 issued 3 ops; C1 has only seen 2 of them -> lag 1.
        system = _StubSystem([_StubClient([3, 0]), _StubClient([2, 0])])
        monitor = HealthMonitor(system, registry=Registry())
        assert monitor.stability_lags() == [1, 0]

    def test_faust_tracker_answers_directly(self):
        client = _StubClient([4])
        client.tracker = _StubTracker(stable=1)
        monitor = HealthMonitor(_StubSystem([client]), registry=Registry())
        assert monitor.stability_lags() == [3]

    def test_clients_without_versions_lag_zero(self):
        class Bare:
            pass

        monitor = HealthMonitor(_StubSystem([Bare()]), registry=Registry())
        assert monitor.stability_lags() == [0]

    def test_a_clients_lag_is_its_worst_shard(self):
        system = _StubSystem([_StubClient([3, 0]), _StubClient([2, 0])])
        other = _StubSystem([_StubClient([1, 1]), _StubClient([1, 5])])
        system.shards = [system, other]
        monitor = HealthMonitor(system, registry=Registry())
        assert monitor.stability_lags() == [1, 4]


class TestDetectionArithmetic:
    def test_time_to_detection_from_noted_deviation(self):
        system = _StubSystem([_StubClient([1])])
        monitor = HealthMonitor(system, registry=Registry())
        monitor.note_deviation(10.0)
        monitor.note_deviation(12.0)  # min-keeps the earliest
        assert monitor.deviation_time == 10.0
        assert monitor.time_to_detection() is None  # nothing detected yet
        system.now = 17.0
        system.fail(0, "tampering")
        assert monitor.first_failure_time() == 17.0
        assert monitor.time_to_detection() == 7.0

    def test_deviation_auto_discovered_from_server_attrs(self):
        class Server:
            first_deviation_at = 4.0

        system = _StubSystem([_StubClient([1])], now=9.0, server=Server())
        monitor = HealthMonitor(system, registry=Registry())
        system.fail(0, "rollback")
        stats = monitor.refresh()
        assert monitor.deviation_time == 4.0
        assert stats["health.time_to_detection"] == 5.0

    def test_monitor_start_is_the_conservative_baseline(self):
        system = _StubSystem([_StubClient([1])], now=100.0)
        monitor = HealthMonitor(system, registry=Registry())
        system.now = 103.0
        system.fail(0, "anything")
        assert monitor.time_to_detection() == 3.0

    def test_refresh_writes_the_gauges(self):
        registry = Registry()
        system = _StubSystem([_StubClient([2, 0]), _StubClient([1, 0])])
        monitor = HealthMonitor(system, registry=registry)
        system.now = 6.0
        system.fail(0, "caught")
        stats = monitor.refresh()
        assert stats["health.failures"] == 1
        assert registry.get("health.c0.stability_lag").value == 1
        assert registry.get("health.max_stability_lag").value == 1
        assert registry.get("health.first_failure_time").value == 6.0
        assert registry.get("health.failures").value == 1
        assert stats["health.max_stability_lag"] == 1

    def test_stability_outputs_are_not_failures(self):
        registry = Registry()
        system = _StubSystem([_StubClient([1])])
        monitor = HealthMonitor(system, registry=registry)
        system.notifications.emit_stability(1.0, 0, (1,))
        assert monitor.first_failure_time() is None
        monitor.refresh()
        assert registry.get("health.failures").value == 0

    def test_auditor_progress_is_reported(self):
        class Auditor:
            audits = [1, 2, 3]
            ok = False

        registry = Registry()
        monitor = HealthMonitor(_StubSystem([]), registry=registry, auditor=Auditor())
        stats = monitor.refresh()
        assert stats["audit.audits"] == 3
        assert stats["audit.ok"] == 0.0
        assert registry.get("audit.audits").value == 3
        assert registry.get("audit.ok").value == 0.0
        assert registry.get("audit.runs") is None


def _run_scripts(system, num_clients, *, ops, seed, think=1.0):
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(
            ops_per_client=ops, read_fraction=0.5, mean_think_time=think
        ),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    return driver


class TestDetectionLatencySim:
    def test_rollback_server_under_faust(self):
        with use_registry(Registry()) as registry:
            system = open_system(
                SystemConfig(
                    num_clients=3,
                    seed=1,
                    server_factory=lambda n, name: RollbackServer(
                        n,
                        snapshot_after_submits=2,
                        rollback_after_submits=6,
                        outage=5.0,
                        name=name,
                    ),
                ),
                backend="faust",
            )
            monitor = HealthMonitor(system)
            _run_scripts(system, 3, ops=6, seed=1)
            system.run(until=500.0)

            notifications = [
                e
                for e in system.notifications.history
                if isinstance(e, FailureNotification)
            ]
            assert notifications, "the rollback attack went undetected"
            # The monitor reads the hub, so the two agree exactly.
            assert monitor.first_failure_time() == min(
                e.time for e in notifications
            )
            stats = monitor.refresh()
            assert registry.get("health.failures").value == len(notifications)
            crash_time = system.server.rollback_crash_time
            assert crash_time is not None
            assert monitor.deviation_time == crash_time
            expected = max(
                0.0, min(e.time for e in notifications) - crash_time
            )
            assert stats["health.time_to_detection"] == pytest.approx(expected)
            assert registry.get(
                "health.time_to_detection"
            ).value == pytest.approx(expected)

    def test_targeted_tampering_under_ustor(self):
        with use_registry(Registry()) as registry:
            system = open_system(
                SystemConfig(
                    num_clients=3,
                    seed=2,
                    server_factory=lambda n, name: TamperingServer(
                        n, target_register=0, name=name
                    ),
                ),
                backend="ustor",
            )
            monitor = HealthMonitor(system)
            _run_scripts(system, 3, ops=8, seed=2)
            system.run(until=500.0)

            notifications = [
                e
                for e in system.notifications.history
                if isinstance(e, FailureNotification)
            ]
            assert notifications, "the tampering attack went undetected"
            stats = monitor.refresh()
            # The seam stamps the first corrupted read — not the monitor's
            # start (t=0 here) — so the gauge is the one network hop that
            # carried the mangled REPLY to the client that caught it.
            detected = min(e.time for e in notifications)
            deviation = system.server.first_deviation_at
            assert monitor.started_at == 0.0 < deviation < detected
            assert stats["health.deviation_time"] == deviation
            assert any(
                m.sent_at == deviation and m.delivered_at == detected
                for m in system.trace.messages_of_kind("REPLY")
            )
            assert stats["health.time_to_detection"] == pytest.approx(
                detected - deviation
            )
            assert registry.get("health.failures").value == len(notifications)

    def test_split_brain_under_faust(self):
        fork_time = 10.0
        with use_registry(Registry()):
            system = open_system(
                SystemConfig(
                    num_clients=4,
                    seed=3,
                    server_factory=lambda n, name: SplitBrainServer(
                        n, groups=[{0, 2}, {1, 3}], fork_time=fork_time, name=name
                    ),
                ),
                backend="faust",
            )
            monitor = HealthMonitor(system)
            _run_scripts(system, 4, ops=8, seed=3)
            system.run(until=500.0)

            stats = monitor.refresh()
            # The fork is the first request served from a branch: the
            # first SUBMIT or COMMIT to reach the server from fork_time on.
            first_forked = min(
                m.delivered_at
                for m in system.trace.messages
                if m.dst == "S"
                and m.delivered_at is not None
                and m.delivered_at >= fork_time
            )
            assert stats["health.deviation_time"] == first_forked
            detected = monitor.first_failure_time()
            assert detected is not None, "the fork went undetected"
            assert stats["health.time_to_detection"] == pytest.approx(
                detected - first_forked
            )


    def test_split_brain_shard_counts_one_failure_per_failed_client(self):
        # A cluster's clients are views over shard instances: the monitor
        # reads the hub and walks the shards, so a forked shard's
        # detections are counted and its clients' lags measured.
        from repro.workloads.scenarios import split_brain_shard_scenario

        monitors = []
        with use_registry(Registry()) as registry:
            result = split_brain_shard_scenario(
                prepare=lambda system: monitors.append(HealthMonitor(system))
            )
            stats = monitors[0].refresh()
        assert result.failed_clients
        assert registry.get("health.failures").value == len(result.failed_clients)
        assert stats["health.first_failure_time"] == min(
            e.time for e in result.system.notifications.failure_events()
        )
        assert "health.time_to_detection" in stats


@pytest.mark.net
class TestDetectionLatencyTcp:
    def test_tampering_server_over_loopback(self):
        from repro.net.client import NetRuntime
        from repro.net.server import NetServerHost

        with use_registry(Registry()) as registry:
            runtime = NetRuntime()
            host = NetServerHost(
                2,
                server_factory=lambda n, name: TamperingServer(
                    n, target_register=0, name=name
                ),
            )
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
                monitor = HealthMonitor(system)
                driver = _run_scripts(system, 2, ops=6, seed=7, think=0.005)
                assert system.run_until(
                    lambda: any(
                        getattr(c, "failed", False) for c in system.clients
                    ),
                    timeout=20.0,
                ), "no client detected the tampering server"
                del driver

                notifications = [
                    e
                    for e in system.notifications.history
                    if isinstance(e, FailureNotification)
                ]
                assert notifications
                stats = monitor.refresh()
                # Wall clock: the hub and the monitor read the clock a
                # few microseconds apart inside the same callback chain.
                expected = min(
                    e.time for e in notifications
                ) - monitor.started_at
                assert stats["health.time_to_detection"] == pytest.approx(
                    expected, abs=0.1
                )
                assert stats["health.time_to_detection"] > 0
                assert registry.get(
                    "health.time_to_detection"
                ).value == pytest.approx(expected, abs=0.1)
                assert "health.c0.stability_lag" in stats
