"""Fuzzing the detection machinery with a randomized adversary."""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.common.types import BOTTOM, parse_client_name
from repro.consistency.causal import check_causal_consistency
from repro.ustor.fuzz import DEVIATIONS, RandomDeviationServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

#: These are the fast members of the randomized-adversary family; the
#: long sweeps live behind ``-m slow`` (see pyproject markers).
pytestmark = pytest.mark.fuzz


def fuzz_run(seed: int, probability: float, n: int = 3, ops: int = 10):
    system = open_system(
        SystemConfig(
            num_clients=n,
            seed=seed,
            server_factory=lambda nn, name: RandomDeviationServer(
                nn, deviation_probability=probability, seed=seed, name=name
            ),
        ),
        backend="ustor",
    )
    scripts = generate_scripts(
        n,
        WorkloadConfig(ops_per_client=ops, read_fraction=0.5, mean_think_time=0.5),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=2_000)
    return system, driver


class TestControl:
    @pytest.mark.parametrize("seed", range(5))
    def test_zero_probability_is_honest(self, seed):
        system, driver = fuzz_run(seed, probability=0.0)
        assert driver.stats.all_done()
        assert not any(c.failed for c in system.clients)
        assert system.server.injected == []


class TestAccuracy:
    """fail only where a deviation was actually delivered."""

    @pytest.mark.parametrize("seed", range(12))
    def test_failures_attributable(self, seed):
        system, _driver = fuzz_run(seed, probability=0.35)
        victims_hit = {dst for _name, dst in system.server.injected}
        for client in system.clients:
            if client.failed:
                assert client.name in victims_hit, (
                    f"{client.name} raised fail ({client.fail_reason}) but "
                    f"never received a deviation"
                )

    @pytest.mark.parametrize("seed", range(12))
    def test_histories_stay_causal(self, seed):
        system, _driver = fuzz_run(seed, probability=0.35)
        assert check_causal_consistency(system.history()), f"seed {seed}"

    @pytest.mark.parametrize("seed", range(12))
    def test_no_fabricated_values_ever_returned(self, seed):
        # The DATA-signature check makes tampered values unreturnable: any
        # read that *completed* carries either BOTTOM or a genuinely
        # written value.
        system, _driver = fuzz_run(seed, probability=0.35)
        history = system.history()
        written = {
            bytes(op.value) for op in history if op.is_write and op.value is not None
        }
        for op in history:
            if op.is_read and op.complete and op.value is not BOTTOM:
                assert bytes(op.value) in written, f"seed {seed}: {op.describe()}"

    def test_deviations_actually_fire(self):
        fired = set()
        for seed in range(12):
            system, _driver = fuzz_run(seed, probability=0.35)
            fired |= {name for name, _dst in system.server.injected}
        # Over a dozen seeds the fuzzer must have exercised most of its
        # catalogue (stale-version needs a committed first version, so it
        # may be rarer).
        assert len(fired & set(DEVIATIONS)) >= 3, fired


class TestHighPressure:
    def test_every_client_eventually_fails_under_constant_deviation(self):
        system, _driver = fuzz_run(seed=99, probability=1.0, ops=6)
        # With a deviation in (almost) every reply, every client that got
        # any reply detects quickly.
        assert all(
            c.failed or c.completed_operations == 0 for c in system.clients
        )

    def test_detection_reasons_reference_algorithm_lines(self):
        system, _driver = fuzz_run(seed=99, probability=1.0, ops=6)
        reasons = [c.fail_reason for c in system.clients if c.fail_reason]
        assert reasons
        assert all("line" in reason for reason in reasons)
