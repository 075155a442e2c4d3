"""Baselines: the blocking lock-step protocol and the unchecked store."""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.baselines.lockstep import TamperingLockStepServer
from repro.baselines.unchecked import LyingUncheckedServer
from repro.common.types import BOTTOM
from repro.consistency.causal import check_causal_consistency
from repro.consistency import check_fork_linearizability_exhaustive
from repro.consistency.linearizability import check_linearizability
from repro.sim.network import FixedLatency
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def sync_op(system, client, op, arg, timeout=1_000.0):
    box = []
    getattr(client, op)(arg, box.append)
    assert system.run_until(lambda: bool(box), timeout=timeout)
    system.run(until=system.now + 0.05)
    return box[0]


class TestLockStepHappyPath:
    def test_write_read(self):
        system = open_system(SystemConfig(2, seed=1), backend="lockstep")
        sync_op(system, system.clients[0], "write", b"v")
        outcome = sync_op(system, system.clients[1], "read", 0)
        assert outcome.value == b"v"

    def test_read_before_write_is_bottom(self):
        system = open_system(SystemConfig(2, seed=1), backend="lockstep")
        outcome = sync_op(system, system.clients[1], "read", 0)
        assert outcome.value is BOTTOM

    @pytest.mark.parametrize("seed", range(4))
    def test_linearizable_on_random_runs(self, seed):
        system = open_system(SystemConfig(3, seed=seed), backend="lockstep")
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=12), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion()
        history = system.history()
        assert check_linearizability(history)
        assert check_causal_consistency(history)
        assert not any(c.failed for c in system.clients)

    def test_small_run_fork_linearizable(self):
        system = open_system(SystemConfig(2, seed=3), backend="lockstep")
        sync_op(system, system.clients[0], "write", b"a")
        sync_op(system, system.clients[1], "read", 0)
        sync_op(system, system.clients[0], "write", b"b")
        assert check_fork_linearizability_exhaustive(system.history())

    def test_timestamps_increase(self):
        system = open_system(SystemConfig(1, seed=1), backend="lockstep")
        first = sync_op(system, system.clients[0], "write", b"a")
        second = sync_op(system, system.clients[0], "read", 0)
        assert first.timestamp < second.timestamp


class TestLockStepBlocking:
    """The paper's impossibility made concrete."""

    def test_crash_between_reply_and_commit_blocks_everyone(self):
        system = open_system(
            SystemConfig(3, seed=2, latency=FixedLatency(1.0)),
            backend="lockstep",
        )
        victim = system.clients[0]
        victim.write(b"doomed", lambda o: None)
        system.scheduler.schedule(1.5, victim.crash)  # REPLY lands at 2.0
        results = []
        system.scheduler.schedule(3.0, system.clients[1].write, b"y", results.append)
        system.scheduler.schedule(3.0, system.clients[2].read, 1, results.append)
        system.run(until=1_000)
        assert results == []
        assert system.server.blocked
        assert system.server.queue_length == 2

    def test_contention_serialises_operations(self):
        # All clients submit at once; completions are strictly sequential,
        # so the k-th completion happens ~k round-trips in.
        system = open_system(
            SystemConfig(4, seed=3, latency=FixedLatency(1.0)),
            backend="lockstep",
        )
        done = []
        for client in system.clients:
            client.write(b"w-%d" % client.client_id, lambda o: done.append(system.now))
        system.run_until(lambda: len(done) == 4, timeout=200)
        assert len(done) == 4
        gaps = [b - a for a, b in zip(done, done[1:])]
        assert all(gap >= 1.9 for gap in gaps), f"gaps: {gaps}"

    def test_ustor_same_scenario_does_not_serialise(self):
        system = open_system(
            SystemConfig(num_clients=4, seed=3, latency=FixedLatency(1.0)),
            backend="ustor",
        )
        done = []
        for client in system.clients:
            client.write(b"w-%d" % client.client_id, lambda o: done.append(system.now))
        system.run_until(lambda: len(done) == 4, timeout=200)
        # Every operation completes in one round-trip, all at the same time.
        assert len(done) == 4
        assert max(done) - min(done) < 0.1


class TestLockStepIntegrity:
    def test_tampered_value_detected(self):
        system = open_system(
            SystemConfig(
                2,
                seed=4,
                server_factory=lambda n, name: TamperingLockStepServer(n, 0, name=name),
            ),
            backend="lockstep",
        )
        sync_op(system, system.clients[0], "write", b"genuine")
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=100)
        assert not box
        assert system.clients[1].failed
        assert "does not match" in system.clients[1].fail_reason


class TestUnchecked:
    def test_happy_path(self):
        system = open_system(SystemConfig(2, seed=1), backend="unchecked")
        sync_op(system, system.clients[0], "write", b"v")
        outcome = sync_op(system, system.clients[1], "read", 0)
        assert outcome.value == b"v"

    def test_lies_are_believed(self):
        # The motivating gap: the same attack USTOR catches at line 50 is
        # silently accepted by the unchecked client.
        system = open_system(
            SystemConfig(
                2,
                seed=2,
                server_factory=lambda n, name: LyingUncheckedServer(n, 0, name=name),
            ),
            backend="unchecked",
        )
        sync_op(system, system.clients[0], "write", b"genuine")
        outcome = sync_op(system, system.clients[1], "read", 0)
        assert outcome.value != b"genuine"
        assert outcome.value.startswith(b"FABRICATED")
        assert not system.clients[1].failed  # no detection, ever

    def test_fabrication_visible_to_offline_checker(self):
        # The recorded history *is* checkable after the fact — the value
        # was never written, so the linearizability checker rejects it.
        system = open_system(
            SystemConfig(
                2,
                seed=3,
                server_factory=lambda n, name: LyingUncheckedServer(n, 0, name=name),
            ),
            backend="unchecked",
        )
        sync_op(system, system.clients[0], "write", b"genuine")
        sync_op(system, system.clients[1], "read", 0)
        assert not check_linearizability(system.history())

    @pytest.mark.parametrize("seed", range(3))
    def test_honest_unchecked_is_linearizable(self, seed):
        system = open_system(SystemConfig(3, seed=seed), backend="unchecked")
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=10), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion()
        assert check_linearizability(system.history())
