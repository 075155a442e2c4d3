"""Workload generation, the driver, the blocking session surface, scenarios."""

from __future__ import annotations

import math
import random

import pytest

from repro.api import (
    FaustParams,
    OperationFailed,
    SystemConfig,
    open_system,
)
from repro.common.errors import ConfigurationError
from repro.common.types import BOTTOM, OpKind
from repro.sim.faults import Fault
from repro.workloads.generator import (
    Driver,
    WorkloadConfig,
    generate_scripts,
    unique_value,
)
from repro.workloads.scenarios import (
    figure3_scenario,
    replica_rollback_scenario,
    rollback_attack_scenario,
    server_outage_scenario,
    split_brain_scenario,
    split_brain_shard_scenario,
)


class TestWorkloadGenerator:
    def test_unique_values_are_unique(self):
        values = {unique_value(c, s, 32) for c in range(5) for s in range(50)}
        assert len(values) == 250

    def test_unique_value_size(self):
        assert len(unique_value(0, 1, 32)) == 32
        assert len(unique_value(0, 1, 4)) >= 4  # stem may exceed tiny sizes

    def test_scripts_respect_counts(self):
        scripts = generate_scripts(3, WorkloadConfig(ops_per_client=7), random.Random(1))
        assert all(len(s) == 7 for s in scripts.values())

    def test_read_fraction_extremes(self):
        all_reads = generate_scripts(
            2, WorkloadConfig(ops_per_client=20, read_fraction=1.0), random.Random(1)
        )
        assert all(op.kind is OpKind.READ for s in all_reads.values() for op in s)
        all_writes = generate_scripts(
            2, WorkloadConfig(ops_per_client=20, read_fraction=0.0), random.Random(1)
        )
        assert all(op.kind is OpKind.WRITE for s in all_writes.values() for op in s)

    def test_writes_target_own_register(self):
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=20, read_fraction=0.3), random.Random(2)
        )
        for client, script in scripts.items():
            for op in script:
                if op.kind is OpKind.WRITE:
                    assert op.register == client

    def test_silent_clients(self):
        scripts = generate_scripts(
            3,
            WorkloadConfig(ops_per_client=5, silent_clients=frozenset({1})),
            random.Random(3),
        )
        assert scripts[1] == [] and len(scripts[0]) == 5

    def test_deterministic_given_seed(self):
        a = generate_scripts(2, WorkloadConfig(ops_per_client=9), random.Random(4))
        b = generate_scripts(2, WorkloadConfig(ops_per_client=9), random.Random(4))
        assert a == b

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(read_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(ops_per_client=-1)


class TestDriver:
    def test_completion_fraction(self):
        system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
        scripts = generate_scripts(2, WorkloadConfig(ops_per_client=4), random.Random(1))
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion()
        assert driver.completion_fraction() == 1.0
        assert driver.stats.total_completed() == 8

    def test_crashed_client_stops_mid_script(self):
        system = open_system(SystemConfig(num_clients=2, seed=2), backend="ustor")
        scripts = generate_scripts(
            2, WorkloadConfig(ops_per_client=10, mean_think_time=1.0), random.Random(2)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.faults.add(Fault("crash-forever", 0, 5.0))
        system.run(until=1_000)
        assert driver.stats.completed[1] == 10
        assert driver.stats.completed[0] < 10

    def test_empty_script_counts_done(self):
        system = open_system(SystemConfig(num_clients=1, seed=3), backend="ustor")
        driver = Driver(system)
        driver.attach(0, [])
        assert driver.stats.all_done()
        assert driver.completion_fraction() == 1.0


class TestBlockingSessions:
    """The blocking read/write surface of the facade sessions."""

    def _system(self, seed, **config_kwargs):
        return open_system(
            SystemConfig(num_clients=2, seed=seed, **config_kwargs),
            backend="faust",
        )

    def test_write_read_roundtrip(self):
        system = self._system(5)
        alice, bob = system.session(0), system.session(1)
        t = alice.write_sync(b"hello")
        assert t >= 1
        value, _t2 = bob.read_sync(0)
        assert value == b"hello"

    def test_read_unwritten_register(self):
        system = self._system(5)
        value, _t = system.session(0).read_sync(1)
        assert value is BOTTOM

    def test_wait_for_stability(self):
        system = self._system(6, faust=FaustParams(dummy_read_period=2.0))
        alice = system.session(0)
        t = alice.write_sync(b"document")
        assert alice.wait_for_stability(t, timeout=2_000)
        assert min(alice.stability_cut) >= t

    def test_operation_failed_surface(self):
        from repro.ustor.byzantine import TamperingServer

        system = self._system(
            7, server_factory=lambda n, name: TamperingServer(n, 0, name=name)
        )
        system.session(0).write_sync(b"genuine")
        with pytest.raises(OperationFailed):
            system.session(1).read_sync(0)


class TestScenarios:
    def test_figure3_deterministic(self):
        a = figure3_scenario(seed=3)
        b = figure3_scenario(seed=3)
        assert [op.describe() for op in a.history] == [op.describe() for op in b.history]

    def test_split_brain_without_faust_is_silent(self):
        result = split_brain_scenario(num_clients=4, seed=99, faust=False, run_for=300.0)
        assert not any(getattr(c, "failed", False) for c in result.system.clients)

    def test_server_outage_with_recovery_is_invisible(self):
        result = server_outage_scenario(ops_per_client=5)
        assert result.stats.all_done()
        assert result.recovery_byte_identical
        assert not result.failures
        assert result.system.server.restarts == 1

    def test_server_outage_on_volatile_storage_is_detected(self):
        result = server_outage_scenario(
            ops_per_client=5, storage="memory", run_for=600.0
        )
        assert not result.recovery_byte_identical
        assert result.failures

    def test_rollback_attack_detected_by_all(self):
        result = rollback_attack_scenario(ops_per_client=6)
        assert len(result.detection_times) == 3
        assert not math.isnan(result.detection_latency)
        assert result.detection_latency >= 0
        assert result.reference is not None

    def test_rollback_scenario_deterministic(self):
        a = rollback_attack_scenario(ops_per_client=6)
        b = rollback_attack_scenario(ops_per_client=6)
        assert a.detection_times == b.detection_times
        assert a.reference == b.reference

    def test_rollback_attack_without_faust_is_not_unnoticed(self):
        # Regression: detection times used to be read off the FAUST layer
        # only, so the USTOR-only run reported no detection and a nan
        # latency while all three clients had output fail_i (Algorithm 1,
        # lines 36/43/51) and the hub held three notifications.
        result = rollback_attack_scenario(faust=False)
        assert all(c.failed for c in result.system.clients)
        assert result.failed_clients == {0, 1, 2}
        assert len(result.detection_times) == 3
        assert math.isfinite(result.detection_latency)
        assert result.detection_latency >= 0


#: Every scenario row on every backend it runs on: (row, its knobs).
_FAST = dict(ops_per_client=6, run_for=400.0)
SCENARIO_ROWS = [
    (row, dict(_FAST, faust=faust, **knobs))
    for faust in (True, False)
    for row, knobs in [
        (server_outage_scenario, {}),
        (server_outage_scenario, dict(storage="memory")),
        (rollback_attack_scenario, {}),
        (split_brain_scenario, {}),
    ]
] + [
    (replica_rollback_scenario, dict(_FAST, **knobs))
    for knobs in [
        dict(replicas=1, rollback_replica=0),
        dict(replicas=3),
        dict(replicas=3, quorum=3),
        dict(replicas=3, counter="durable"),
        dict(replicas=3, counter="durable", rollback_replica=None,
             honest_outage=(1, 30.0, 5.0)),
        dict(replicas=3, rollback_replica=None),
    ]
] + [
    (split_brain_shard_scenario, dict(ops_per_client=8, run_for=300.0, **knobs))
    for knobs in [dict(), dict(forked_shards=(1, 2), seed=43),
                  dict(num_clients=8, shards=3, seed=47)]
]


@pytest.mark.parametrize(
    "row, knobs",
    SCENARIO_ROWS,
    ids=[
        f"{row.__name__.removesuffix('_scenario')}-"
        + ",".join(f"{k}={v}" for k, v in knobs.items() if k not in _FAST)
        for row, knobs in SCENARIO_ROWS
    ],
)
def test_one_reading_of_fail_i(row, knobs):
    """Who failed is read from one place and agrees with the clients:
    the record's failures == the clients with ``.failed``, whichever layer
    raised ``fail_i``; latency is finite iff something was signalled —
    with no counter to convict anybody, iff somebody output ``fail_i``."""
    run = row(**knobs)
    failed = {c.client_id for c in run.system.clients if c.failed}
    assert run.failed_clients == failed == {e.client for e in run.failures}
    assert len(run.detection_times) == len(failed)
    assert run.detected == bool(failed or run.convicted)
    assert math.isfinite(run.detection_latency) == run.detected
    if run.config.counter is None:
        assert not run.convicted
        assert math.isfinite(run.detection_latency) == bool(failed)
