"""Micro-benchmarks of the protocol hot paths.

Measures simulated-operation throughput end to end (client + server +
network + recorder), the cost of one server SUBMIT application, and the
piggyback/eager and scheme trade-offs — the numbers a downstream user
needs to size a deployment of the simulator.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.common.types import OpKind
from repro.crypto.keystore import KeyStore
from repro.ustor.messages import InvocationTuple, SubmitMessage
from repro.ustor.server import ServerState, apply_submit
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def _run_workload(num_clients: int, ops_per_client: int, seed: int, **config_kwargs):
    system = open_system(
        SystemConfig(num_clients=num_clients, seed=seed, **config_kwargs),
        backend="ustor",
    )
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.5, mean_think_time=0.0),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    assert driver.run_to_completion(timeout=10_000_000)
    return driver.stats.total_completed()


@pytest.mark.parametrize("num_clients", [2, 8])
def test_ustor_throughput(benchmark, num_clients):
    ops = benchmark(_run_workload, num_clients, 25, 1)
    assert ops == num_clients * 25


def test_ustor_throughput_ed25519(benchmark):
    ops = benchmark(_run_workload, 4, 10, 2, scheme="ed25519")
    assert ops == 40


def test_ustor_throughput_piggyback(benchmark):
    ops = benchmark(_run_workload, 4, 25, 3, commit_piggyback=True)
    assert ops == 100


def test_server_apply_submit(benchmark):
    store = KeyStore(8, scheme="hmac")
    signer = store.signer(0)

    def one_submit():
        state = ServerState.initial(8)
        message = SubmitMessage(
            timestamp=1,
            invocation=InvocationTuple(
                client=0,
                opcode=OpKind.WRITE,
                register=0,
                submit_sig=signer.sign("SUBMIT", OpKind.WRITE, 0, 1),
            ),
            value=b"v" * 64,
            data_sig=signer.sign("DATA", 1, b"h"),
        )
        return apply_submit(state, message)

    reply = benchmark(one_submit)
    assert reply.commit_index == 0


def test_lockstep_throughput(benchmark):
    def run():
        system = build_deployment(SystemConfig(4, seed=4), lockstep_protocol())
        scripts = generate_scripts(
            4,
            WorkloadConfig(ops_per_client=15, read_fraction=0.5, mean_think_time=0.0),
            random.Random(4),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(timeout=10_000_000)
        return driver.stats.total_completed()

    assert benchmark(run) == 60
