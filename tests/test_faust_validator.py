"""Definition 5 as a regression test: the whole-run validator."""

from __future__ import annotations

import random

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.faust.validator import validate_fail_aware_run
from repro.sim.faults import Fault
from repro.ustor.byzantine import SplitBrainServer, TamperingServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def run_honest(seed: int, n: int = 3, ops: int = 6, settle: float = 400.0):
    system = open_system(
        SystemConfig(
            num_clients=n,
            seed=seed,
            faust=FaustParams(
                dummy_read_period=3.0, probe_check_period=4.0, delta=15.0
            ),
        ),
    )
    scripts = generate_scripts(
        n, WorkloadConfig(ops_per_client=ops, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    assert driver.run_to_completion(timeout=100_000)
    cutoff = system.now
    system.run(until=system.now + settle)
    return system, cutoff


class TestHonestRuns:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_conditions_hold(self, seed):
        system, cutoff = run_honest(seed)
        report = validate_fail_aware_run(
            system, server_correct=True, completeness_cutoff=cutoff
        )
        assert report.ok, report.render()
        assert len(report.conditions) == 7

    def test_report_renders(self):
        system, cutoff = run_honest(10)
        report = validate_fail_aware_run(
            system, server_correct=True, completeness_cutoff=cutoff
        )
        text = report.render()
        assert text.count("[OK ]") == 7
        assert "detection completeness" in text

    def test_with_a_crashed_client(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=5,
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=15.0
                ),
            ),
        )
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=6, mean_think_time=1.0), random.Random(5)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.faults.add(Fault("crash-forever", 2, 8.0))
        system.run(until=60.0)
        cutoff = system.now
        system.run(until=system.now + 500.0)
        report = validate_fail_aware_run(
            system, server_correct=True, completeness_cutoff=cutoff
        )
        # Crashed clients are exempt from every quantifier over correct
        # clients; all conditions must still hold for the survivors.
        assert report.ok, report.render()


class TestByzantineRuns:
    def test_split_brain_run_satisfies_definition(self):
        groups = [{0, 1}, {2, 3}]
        system = open_system(
            SystemConfig(
                num_clients=4,
                seed=7,
                server_factory=lambda n, name: SplitBrainServer(
                    n, groups=groups, fork_time=10.0, name=name
                ),
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=15.0
                ),
            ),
        )
        scripts = generate_scripts(
            4, WorkloadConfig(ops_per_client=6, mean_think_time=1.0), random.Random(7)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=900.0)
        report = validate_fail_aware_run(
            system, server_correct=False, completeness_cutoff=300.0
        )
        # Under the attack: causality + integrity + accuracy + stability
        # accuracy hold, and completeness is discharged by system-wide fail.
        assert report.ok, report.render()
        assert all(c.failed for c in system.clients)

    def test_tampering_run_satisfies_definition(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=8,
                server_factory=lambda n, name: TamperingServer(n, 0, name=name),
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=15.0
                ),
            ),
        )
        done = []
        system.clients[0].write(b"x", done.append)
        system.run_until(lambda: bool(done), timeout=100)
        system.clients[1].read(0, done.append)
        system.run(until=system.now + 400)
        report = validate_fail_aware_run(
            system, server_correct=False, completeness_cutoff=50.0
        )
        assert report.ok, report.render()

    def test_validator_catches_misattributed_correctness(self):
        # Claiming the server was correct when it tampered must FAIL the
        # accuracy condition — the validator is not a rubber stamp.
        system = open_system(
            SystemConfig(
                num_clients=2,
                seed=9,
                server_factory=lambda n, name: TamperingServer(n, 0, name=name),
                faust=FaustParams(dummy_read_period=3.0),
            ),
        )
        done = []
        system.clients[0].write(b"x", done.append)
        system.run_until(lambda: bool(done), timeout=100)
        system.clients[1].read(0, lambda o: None)
        system.run(until=system.now + 200)
        report = validate_fail_aware_run(system, server_correct=True)
        assert not report.ok
        assert any(
            "accuracy" in result.condition for result in report.failures()
        )
