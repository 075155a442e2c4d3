"""Cluster-layer benchmarks: routing overhead and shard scaling.

Two questions a deployment sizer asks of `repro.cluster`:

* what does the cluster facade *cost* over the bare protocol (the
  1-shard embedding should be near-free), and
* how does end-to-end throughput move as the same workload spreads over
  more shards (more servers, same register space).

All randomness comes from the pinned ``bench_seed``/``bench_rng``
fixtures, so runs are replayable and their pytest-benchmark timings
are comparable across commits.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.common.types import OpKind
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def _quiet(num_clients: int, shards: int, seed: int) -> SystemConfig:
    return SystemConfig(
        num_clients=num_clients,
        shards=shards,
        seed=seed,
        faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
    )


def _run_cluster_workload(num_clients: int, shards: int, ops_per_client: int, seed: int) -> int:
    # The seed is fixed per benchmark (not drawn per call), so every
    # timing round — and every run of this commit — times the exact same
    # seeded workload.
    system = open_system(_quiet(num_clients, shards, seed), backend="cluster")
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(
            ops_per_client=ops_per_client, read_fraction=0.5, mean_think_time=0.0
        ),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    assert driver.run_to_completion(timeout=10_000_000)
    return driver.stats.total_completed()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_cluster_throughput_by_shard_count(benchmark, shards, bench_seed):
    ops = benchmark(_run_cluster_workload, 8, shards, 15, bench_seed + shards)
    assert ops == 8 * 15


def test_cluster_session_routing_overhead(benchmark, bench_seed):
    """Synchronous cross-shard ping-pong through the full session facade.

    A fresh system per round (pedantic ``setup``): rounds must not time a
    progressively larger accumulated history.
    """

    def fresh_sessions():
        system = open_system(_quiet(4, 2, bench_seed), backend="cluster")
        return (system.sessions(),), {}

    def ping_pong(sessions):
        done = 0
        for session in sessions:
            session.write_sync(b"x" * 32)
            session.read_sync((session.client_id + 1) % 4)
            done += 2
        return done

    result = benchmark.pedantic(
        ping_pong, setup=fresh_sessions, rounds=5, iterations=1, warmup_rounds=0
    )
    assert result == 8


def test_split_brain_shard_scenario_end_to_end(benchmark):
    """The acceptance scenario, timed (and its invariants re-checked)."""
    from repro.workloads.scenarios import split_brain_shard_scenario

    result = benchmark.pedantic(
        lambda: split_brain_shard_scenario(
            num_clients=6, shards=4, forked_shards=(1,), seed=41,
            ops_per_client=8, run_for=300.0,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.exact_detection
    assert result.stats.all_done(result.avoiders)
