"""FAUST failure detection: accuracy (no false positives) and completeness."""

from __future__ import annotations

import random

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.sim.network import ExponentialLatency
from repro.ustor.byzantine import SplitBrainServer, TamperingServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.scenarios import figure3_scenario, split_brain_scenario


class TestAccuracy:
    """Definition 5, condition 5: fail_i only if the server is faulty."""

    @pytest.mark.parametrize("seed", range(6))
    def test_no_false_positives_with_correct_server(self, seed):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=seed,
                latency=ExponentialLatency(1.0, cap=6.0),
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=12.0
                ),
            ),
        )
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=10), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        driver.run_to_completion()
        system.run(until=system.now + 300)
        assert not any(c.failed for c in system.clients)

    def test_no_false_positives_with_disconnections(self, ):
        # Clients going offline and returning is not failure evidence.
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=77,
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=10.0
                ),
            ),
        )
        lazy = system.clients[2]
        system.offline.set_online(lazy.name, False)
        lazy.pause()
        scripts = generate_scripts(
            3,
            WorkloadConfig(ops_per_client=8, silent_clients=frozenset({2})),
            random.Random(77),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        driver.run_to_completion()
        system.run(until=system.now + 100)
        system.offline.set_online(lazy.name, True)
        lazy.resume()
        system.run(until=system.now + 300)
        assert not any(c.failed for c in system.clients)


class TestCompleteness:
    """Definition 5, condition 7: failures eventually reach every client."""

    def test_split_brain_detected_at_all_correct_clients(self):
        result = split_brain_scenario(num_clients=4, seed=11, run_for=800.0)
        for client in result.system.clients:
            if client.crashed:
                continue
            assert client.failed, f"{client.name} missed the fork"
            assert client.fail_reason is not None

    def test_detection_reasons_are_informative(self):
        result = split_brain_scenario(num_clients=4, seed=12, run_for=800.0)
        reasons = {c.fail_reason for c in result.system.clients}
        assert any("incomparable" in (r or "") for r in reasons)

    def test_figure3_fork_detected_via_offline_exchange(self):
        result = figure3_scenario(faust=True)
        system = result.system
        system.run(until=system.now + 400)
        assert all(c.failed for c in system.clients)

    def test_ustor_detection_propagates_via_failure_messages(self):
        # C2 catches the tamper locally (line 50); C1 and C3 learn only
        # through the FAILURE alert on the offline channel.
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=13,
                server_factory=lambda n, name: TamperingServer(n, target_register=0, name=name),
                faust=FaustParams(
                    dummy_read_period=1_000.0, probe_check_period=1_000.0
                ),
            ),
        )
        box = []
        system.clients[0].write(b"genuine", box.append)
        assert system.run_until(lambda: bool(box), timeout=100)
        system.clients[1].read(0, lambda o: None)
        system.run(until=system.now + 100)
        assert system.clients[1].failed
        assert "USTOR detection" in system.clients[1].fail_reason
        # Propagation to everyone else despite zero background reads:
        assert system.clients[0].failed
        assert system.clients[2].failed
        assert "FAILURE alert" in system.clients[2].fail_reason

    def test_failed_client_halts_operations(self):
        from repro.common.errors import ProtocolError

        result = figure3_scenario(faust=True)
        system = result.system
        system.run(until=system.now + 400)
        victim = system.clients[1]
        with pytest.raises(ProtocolError):
            victim.read(0)

    def test_detection_latency_shrinks_with_probe_rate(self):
        def detection_time(delta):
            result = split_brain_scenario(
                num_clients=4, seed=21, delta=delta, run_for=3_000.0
            )
            times = result.detection_times
            assert times, f"no detection with delta={delta}"
            return max(times)

        fast = detection_time(delta=10.0)
        slow = detection_time(delta=120.0)
        assert fast < slow


class TestOfflineWindows:
    def test_failure_alert_waits_in_mailbox(self):
        # C3 is disconnected when the FAILURE alert goes out; the mailbox
        # holds it and delivery happens at reconnection — eventual
        # completeness across offline windows.
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=41,
                server_factory=lambda n, name: TamperingServer(n, target_register=0, name=name),
                faust=FaustParams(
                    dummy_read_period=1_000.0, probe_check_period=1_000.0
                ),
            ),
        )
        sleeper = system.clients[2]
        system.offline.set_online(sleeper.name, False)
        box = []
        system.clients[0].write(b"genuine", box.append)
        assert system.run_until(lambda: bool(box), timeout=100)
        system.clients[1].read(0, lambda o: None)
        system.run(until=system.now + 100)
        assert system.clients[1].failed
        assert not sleeper.failed  # still asleep, alert in mailbox
        assert system.offline.mailbox_depth(sleeper.name) >= 1
        system.offline.set_online(sleeper.name, True)
        system.run(until=system.now + 50)
        assert sleeper.failed  # woke up to the bad news


class TestSplitBrainStability:
    def test_no_cross_group_stability_after_fork(self):
        # Operations executed after the fork must never become stable
        # w.r.t. clients of the other group (stability-detection accuracy).
        result = split_brain_scenario(num_clients=4, seed=31, fork_time=20.0, run_for=600.0)
        system = result.system
        groups = result.groups
        for client in system.clients:
            own_group = next(g for g in groups if client.client_id in g)
            other = [c for g in groups if g is not own_group for c in g]
            # Find the client's first post-fork timestamp.
            post_fork = [
                op.timestamp
                for op in system.history()
                if op.client == client.client_id
                and op.invoked_at > result.reference + 5.0
                and op.timestamp is not None
            ]
            if not post_fork:
                continue
            earliest = min(post_fork)
            for peer in other:
                # Allow at most the fork-instant race (one in-flight op).
                assert client.tracker.stable_timestamp_for(peer) <= earliest, (
                    f"{client.name} believes op t={earliest} (post-fork) is "
                    f"stable w.r.t. C{peer + 1}"
                )
