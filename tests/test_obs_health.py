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
from repro.obs.health import HealthMonitor
from repro.obs.registry import Registry, use_registry
from repro.ustor.byzantine import RollbackServer, SplitBrainServer, TamperingServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


class _Version:
    def __init__(self, vector):
        self.vector = list(vector)


class _StubClient:
    """Just enough client surface for the monitor: version + listeners."""

    def __init__(self, vector=()):
        self.version = _Version(vector)
        self._listeners = []

    def add_failure_listener(self, listener):
        self._listeners.append(listener)

    def fail(self, reason):
        for listener in self._listeners:
            listener(reason)


class _StubTracker:
    def __init__(self, stable):
        self._stable = stable

    def stable_timestamp_for_all(self):
        return self._stable


class _Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestStabilityLags:
    def test_ustor_proxy_is_min_over_vectors(self):
        # C0 issued 3 ops; C1 has only seen 2 of them -> lag 1.
        clients = [_StubClient([3, 0]), _StubClient([2, 0])]
        monitor = HealthMonitor(clients, _Clock(), registry=Registry())
        assert monitor.stability_lags() == [1, 0]

    def test_faust_tracker_answers_directly(self):
        client = _StubClient([4])
        client.tracker = _StubTracker(stable=1)
        monitor = HealthMonitor([client], _Clock(), registry=Registry())
        assert monitor.stability_lags() == [3]

    def test_clients_without_versions_lag_zero(self):
        class Bare:
            pass

        monitor = HealthMonitor([Bare()], _Clock(), registry=Registry())
        assert monitor.stability_lags() == [0]


class TestDetectionArithmetic:
    def test_time_to_detection_from_noted_deviation(self):
        clock = _Clock(0.0)
        client = _StubClient([1])
        monitor = HealthMonitor([client], clock, registry=Registry())
        monitor.note_deviation(10.0)
        monitor.note_deviation(12.0)  # min-keeps the earliest
        assert monitor.deviation_time == 10.0
        assert monitor.time_to_detection() is None  # nothing detected yet
        clock.now = 17.0
        client.fail("tampering")
        assert monitor.first_failure_time() == 17.0
        assert monitor.time_to_detection() == 7.0

    def test_deviation_auto_discovered_from_server_attrs(self):
        class Server:
            first_deviation_at = 4.0

        clock = _Clock(9.0)
        client = _StubClient([1])
        monitor = HealthMonitor(
            [client], clock, registry=Registry(), servers=[Server()]
        )
        client.fail("rollback")
        stats = monitor.refresh()
        assert monitor.deviation_time == 4.0
        assert stats["health.time_to_detection"] == 5.0

    def test_monitor_start_is_the_conservative_baseline(self):
        clock = _Clock(100.0)
        client = _StubClient([1])
        monitor = HealthMonitor([client], clock, registry=Registry())
        clock.now = 103.0
        client.fail("anything")
        assert monitor.time_to_detection() == 3.0

    def test_refresh_writes_the_gauges(self):
        registry = Registry()
        clock = _Clock(0.0)
        clients = [_StubClient([2, 0]), _StubClient([1, 0])]
        monitor = HealthMonitor(clients, clock, registry=registry)
        clock.now = 6.0
        clients[0].fail("caught")
        stats = monitor.refresh()
        assert registry.get("health.c0.stability_lag").value == 1
        assert registry.get("health.max_stability_lag").value == 1
        assert registry.get("health.first_failure_time").value == 6.0
        assert registry.get("health.failures").value == 1
        assert stats["health.max_stability_lag"] == 1

    def test_auditor_progress_is_reported(self):
        class Auditor:
            audits = [1, 2, 3]
            ok = False

        registry = Registry()
        monitor = HealthMonitor([], _Clock(), registry=registry)
        monitor.watch_auditor(Auditor())
        stats = monitor.refresh()
        assert stats["audit.runs"] == 3
        assert stats["audit.ok"] == 0.0
        assert registry.get("audit.ok").value == 0.0


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
            monitor = HealthMonitor(
                system.clients,
                lambda: system.now,
                servers=[system.server],
            )
            _run_scripts(system, 3, ops=6, seed=1)
            system.run(until=500.0)

            notifications = [
                e
                for e in system.notifications.history
                if isinstance(e, FailureNotification)
            ]
            assert notifications, "the rollback attack went undetected"
            # Both listen on the same client callbacks under the same
            # virtual clock, so the timestamps agree exactly.
            assert sorted(t for t, _c, _r in monitor.failures) == sorted(
                e.time for e in notifications
            )
            stats = monitor.refresh()
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
            monitor = HealthMonitor(
                system.clients, lambda: system.now, servers=[system.server]
            )
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
            assert registry.get("health.failures").value == len(
                monitor.failures
            )

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
            monitor = HealthMonitor(
                system.clients, lambda: system.now, servers=[system.server]
            )
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


@pytest.mark.net
class TestDetectionLatencyTcp:
    def test_tampering_server_over_loopback(self):
        from repro.net.client import NetRuntime, open_tcp_system
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
            system = open_tcp_system(
                2, (host.endpoint,), runtime=runtime, default_timeout=10.0
            )
            system.hosts.append(host)
            system.owns_runtime = True
            with system:
                system.wire_notifications()
                monitor = HealthMonitor(
                    system.clients, lambda: system.scheduler.now
                )
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
