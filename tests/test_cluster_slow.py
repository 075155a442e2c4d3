"""Long-horizon cluster stress runs (``-m slow``; the extended CI job).

Tier-1 proves the cluster's contracts on short schedules; these runs let
the background machinery, churn and per-shard faults grind against each
other for thousands of virtual time units — the regime where accuracy
bugs (a recovery mistaken for a fork, a sleeping client mistaken for a
faulty server) historically hide.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.sim.faults import plan_windows
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
from repro.workloads.scenarios import split_brain_shard_scenario

pytestmark = pytest.mark.slow


def test_long_cluster_churn_with_shard_down_windows_stays_accurate():
    """Client churn + per-shard crash-recovery over a long horizon: with
    durable storage nothing is ever detected, and stability still
    advances on every shard once everyone is back."""
    system = open_system(
        SystemConfig(
            num_clients=6,
            shards=3,
            seed=71,
            storage="log",
            faust=FaustParams(
                delta=60.0, dummy_read_period=5.0, probe_check_period=9.0
            ),
        ),
        backend="cluster",
    )
    # Random client away-windows and single-shard outages; a draw that
    # overlaps a window already on its target is skipped.
    rng = random.Random(71)
    for kind, count, mean_duration, pick_target in (
        ("away", 8, 40.0, lambda: rng.randrange(6)),
        ("down", 6, 15.0, lambda: (rng.randrange(3), None)),
    ):
        for window in plan_windows(rng, kind, count, 600.0, mean_duration):
            fault = replace(window, target=pick_target())
            if system.faults.conflict(fault) is None:
                system.faults.add(fault)

    scripts = generate_scripts(
        6,
        WorkloadConfig(ops_per_client=20, read_fraction=0.5, mean_think_time=30.0),
        random.Random(71),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=2_000.0)

    assert not system.notifications.failure_events(), (
        "honest churn/recovery must never look like misbehaviour"
    )
    assert driver.stats.all_done()
    # Every client's home-shard stability caught up with its writes.
    for client in range(6):
        session = system.session(client)
        cut = session.stability_cut
        assert min(cut) > 0


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(25))
def test_split_brain_detection_scope_over_many_seeds(seed):
    """The acceptance invariant — notified == touched-forked, avoiders
    unharmed — over a wide seed sweep."""
    result = split_brain_shard_scenario(
        num_clients=6,
        shards=4,
        forked_shards=(seed % 4,) if seed % 4 else (1,),
        seed=500 + seed,
        ops_per_client=10,
        run_for=500.0,
    )
    assert result.exact_detection
    assert not (result.failed_clients & result.avoiders)
    assert result.stats.all_done(result.avoiders)
