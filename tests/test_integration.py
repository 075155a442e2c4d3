"""End-to-end integration: the paper's guarantees over a seed matrix.

These tests tie the whole stack together: simulation -> protocol ->
recorded history -> independent checkers, across correct and Byzantine
servers, with and without crashes — Definition 5's conditions in
executable form.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import validate_weak_fork_linearizability
from repro.sim.faults import Fault
from repro.sim.network import ExponentialLatency, UniformLatency
from repro.ustor.byzantine import SplitBrainServer
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


class TestCorrectServerGuarantees:
    """Definition 5, conditions 1-4 with a correct server."""

    @pytest.mark.parametrize("seed", range(10))
    def test_full_matrix(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 5])
        latency = rng.choice(
            [ExponentialLatency(1.0, cap=10.0), UniformLatency(0.2, 3.0)]
        )
        piggyback = rng.random() < 0.3
        system = open_system(
            SystemConfig(
                num_clients=n,
                seed=seed,
                latency=latency,
                commit_piggyback=piggyback,
            ),
            backend="ustor",
        )
        scripts = generate_scripts(
            n,
            WorkloadConfig(
                ops_per_client=15,
                read_fraction=rng.choice([0.2, 0.5, 0.8]),
                mean_think_time=rng.choice([0.0, 1.0, 4.0]),
            ),
            rng,
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        # Wait-freedom (condition 2): everything completes.
        assert driver.run_to_completion(), f"seed {seed}: blocked"
        history = system.history()
        # Linearizability (condition 1).
        assert check_linearizability(history), f"seed {seed}"
        # Causality (condition 3).
        assert check_causal_consistency(history), f"seed {seed}"
        # Integrity (condition 4): per-client timestamps increase.
        for client in history.clients():
            stamps = [
                op.timestamp
                for op in history.restrict_to_client(client)
                if op.timestamp is not None
            ]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)
        # The constructive weak-fork witness validates (Section 5 theorem).
        views = build_client_views(history, system.clients)
        assert validate_weak_fork_linearizability(history, views), f"seed {seed}"
        # Accuracy (condition 5): nobody cried wolf.
        assert not any(c.failed for c in system.clients)

    @pytest.mark.parametrize("seed", range(5))
    def test_with_client_crashes(self, seed):
        n = 4
        system = open_system(
            SystemConfig(
                num_clients=n,
                seed=seed,
                latency=ExponentialLatency(1.0, cap=8.0),
            ),
            backend="ustor",
        )
        scripts = generate_scripts(
            n, WorkloadConfig(ops_per_client=12, mean_think_time=1.0), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.faults.add(Fault("crash-forever", 0, 10.0))
        system.faults.add(Fault("crash-forever", 1, 20.0))
        system.run(until=5_000)
        # Survivors finish everything (wait-freedom despite crashes).
        assert driver.stats.completed[2] == 12
        assert driver.stats.completed[3] == 12
        history = system.history()
        assert check_linearizability(history), f"seed {seed}"
        assert check_causal_consistency(history), f"seed {seed}"
        views = build_client_views(
            history,
            system.clients,  # all clients: crashed ones still hold VH records
            view_clients=[c.client_id for c in system.clients if not c.crashed],
        )
        assert validate_weak_fork_linearizability(history, views), f"seed {seed}"


class TestByzantineGuarantees:
    """Weak fork-linearizability and causality under forking attacks."""

    @pytest.mark.parametrize("seed", range(5))
    def test_split_brain_preserves_weak_fork_and_causality(self, seed):
        n = 4
        groups = [{0, 1}, {2, 3}]
        system = open_system(
            SystemConfig(
                num_clients=n,
                seed=seed,
                server_factory=lambda nn, name: SplitBrainServer(
                    nn, groups=groups, fork_time=5.0, name=name
                ),
            ),
            backend="ustor",
        )
        scripts = generate_scripts(
            n, WorkloadConfig(ops_per_client=10, mean_think_time=1.0), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=5_000)
        history = system.history()
        # Causality holds under the attack (Definition 5, condition 3).
        assert check_causal_consistency(history), f"seed {seed}"
        # The protocol's own views certify weak fork-linearizability.
        views = build_client_views(history, system.clients)
        assert validate_weak_fork_linearizability(history, views), f"seed {seed}"
        # USTOR never halts on a per-branch-consistent server.
        assert not any(c.failed for c in system.clients), f"seed {seed}"

    @pytest.mark.parametrize("seed", range(3))
    def test_split_brain_usually_not_linearizable(self, seed):
        # With both groups writing, the joint history should not be
        # linearizable (sanity check that the attack really forks).
        n = 4
        system = open_system(
            SystemConfig(
                num_clients=n,
                seed=seed + 50,
                server_factory=lambda nn, name: SplitBrainServer(
                    nn, groups=[{0, 1}, {2, 3}], fork_time=0.0, name=name
                ),
            ),
            backend="ustor",
        )
        scripts = generate_scripts(
            n,
            WorkloadConfig(ops_per_client=8, read_fraction=0.5, mean_think_time=0.5),
            random.Random(seed),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=5_000)
        history = system.history()
        reads_cross_group = any(
            op.is_read and (op.client < 2) != (op.register < 2) for op in history
        )
        if reads_cross_group:
            assert not check_linearizability(history)


class TestScaling:
    def test_many_clients(self):
        n = 16
        system = open_system(SystemConfig(num_clients=n, seed=1), backend="ustor")
        scripts = generate_scripts(
            n, WorkloadConfig(ops_per_client=5), random.Random(1)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(timeout=50_000)
        history = system.history()
        assert len(history) == n * 5
        assert check_linearizability(history)

    def test_long_run_server_state_bounded(self):
        system = open_system(SystemConfig(num_clients=3, seed=2), backend="ustor")
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=60, mean_think_time=0.2), random.Random(2)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(timeout=100_000)
        # Eager COMMITs keep the pending list near the concurrency level.
        assert system.server.max_pending_len <= 6
