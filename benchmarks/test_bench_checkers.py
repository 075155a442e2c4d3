"""Benchmarks of the consistency checkers on protocol-generated histories.

The fast linearizability/causality checkers are polynomial and must stay
usable on long recorded runs; the exhaustive checkers are exponential and
benchmarked only on figure-sized inputs.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.consistency import (
    NOTIONS,
    check_causal_consistency,
    check_linearizability,
    validate_weak_fork_linearizability,
)
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.scenarios import figure3_scenario


def _recorded_history(num_clients: int, ops_per_client: int, seed: int):
    system = open_system(
        SystemConfig(num_clients=num_clients, seed=seed),
        backend="ustor",
    )
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.6, mean_think_time=0.0),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    assert driver.run_to_completion(timeout=10_000_000)
    return system


@pytest.mark.parametrize("total_ops", [100, 400])
def test_fast_linearizability_checker(benchmark, total_ops):
    system = _recorded_history(4, total_ops // 4, seed=1)
    history = system.history()
    result = benchmark(check_linearizability, history)
    assert result.ok


def test_causal_checker(benchmark):
    system = _recorded_history(4, 50, seed=2)
    history = system.history()
    result = benchmark(check_causal_consistency, history)
    assert result.ok


@pytest.mark.parametrize("total_ops", [100, 1600])
def test_weak_fork_validator_on_protocol_views(benchmark, total_ops):
    system = _recorded_history(4, total_ops // 4, seed=3)
    history = system.history()
    views = build_client_views(history, system.clients)
    result = benchmark(validate_weak_fork_linearizability, history, views)
    assert result.ok


#: Section 4's classification of the Figure 3 history, the whole table.
FIGURE3 = {
    "linearizability": False,
    "sequential consistency": True,
    "causal consistency": True,
    "fork-linearizability": False,
    "fork-*-linearizability": False,
    "weak fork-linearizability": True,
    "fork-sequential consistency": True,
}


@pytest.mark.parametrize("notion", NOTIONS)
def test_exhaustive_oracle_figure3(benchmark, notion):
    result = figure3_scenario(seed=3)
    verdict = benchmark(NOTIONS[notion], result.history)
    assert verdict.ok == FIGURE3[notion]
