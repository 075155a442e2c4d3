"""Hypothesis-driven whole-protocol properties.

Each test draws randomized deployments (population, latency model, mix,
crash schedules) and asserts a guarantee of Definition 5 end to end.
These complement the seeded matrices in test_integration.py with
shrinking: a failing draw minimises to a small counterexample.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SystemConfig, open_system
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import validate_weak_fork_linearizability
from repro.sim.faults import Fault
from repro.sim.network import ExponentialLatency, FixedLatency, UniformLatency
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

_SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

deployments = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "n": st.integers(min_value=2, max_value=5),
        "latency": st.sampled_from(["fixed", "uniform", "exponential"]),
        "read_fraction": st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        "piggyback": st.booleans(),
        "ops": st.integers(min_value=3, max_value=10),
    }
)


def _latency(name: str):
    return {
        "fixed": FixedLatency(1.0),
        "uniform": UniformLatency(0.1, 2.5),
        "exponential": ExponentialLatency(1.0, cap=6.0),
    }[name]


def _run(params):
    system = open_system(
        SystemConfig(
            num_clients=params["n"],
            seed=params["seed"],
            latency=_latency(params["latency"]),
            commit_piggyback=params["piggyback"],
        ),
        backend="ustor",
    )
    scripts = generate_scripts(
        params["n"],
        WorkloadConfig(
            ops_per_client=params["ops"], read_fraction=params["read_fraction"]
        ),
        random.Random(params["seed"]),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    completed = driver.run_to_completion(timeout=1_000_000)
    return system, driver, completed


class TestDefinition5Properties:
    @_SLOW
    @given(deployments)
    def test_wait_freedom(self, params):
        _system, _driver, completed = _run(params)
        assert completed

    @_SLOW
    @given(deployments)
    def test_linearizability_and_causality(self, params):
        system, _driver, completed = _run(params)
        assert completed
        history = system.history()
        assert check_linearizability(history)
        assert check_causal_consistency(history)

    @_SLOW
    @given(deployments)
    def test_weak_fork_witnesses(self, params):
        system, _driver, completed = _run(params)
        assert completed
        history = system.history()
        views = build_client_views(history, system.clients)
        assert validate_weak_fork_linearizability(history, views)

    @_SLOW
    @given(deployments)
    def test_no_detection_under_correct_server(self, params):
        system, _driver, _completed = _run(params)
        assert not any(c.failed for c in system.clients)

    @_SLOW
    @given(deployments, st.floats(min_value=1.0, max_value=30.0))
    def test_crash_tolerance(self, params, crash_time):
        system = open_system(
            SystemConfig(
                num_clients=params["n"],
                seed=params["seed"],
                latency=_latency(params["latency"]),
            ),
            backend="ustor",
        )
        scripts = generate_scripts(
            params["n"],
            WorkloadConfig(ops_per_client=params["ops"], mean_think_time=1.0),
            random.Random(params["seed"]),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.faults.add(Fault("crash-forever", 0, crash_time))
        system.run(until=100_000)
        # Every survivor finishes its whole script.
        for client in system.clients[1:]:
            assert driver.stats.completed[client.client_id] == params["ops"]
        # And the joint history (with the crashed client's pending op)
        # remains linearizable and causal.
        history = system.history()
        assert check_linearizability(history)
        assert check_causal_consistency(history)


class TestVersionMonotonicity:
    @_SLOW
    @given(deployments)
    def test_committed_versions_form_chains(self, params):
        system, _driver, completed = _run(params)
        assert completed
        # Per client, the sequence of committed versions is totally ordered.
        for client in system.clients:
            assert client.version.total_operations() >= params["ops"]
