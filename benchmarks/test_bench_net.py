"""Loopback completion and latency of the real TCP transport.

Wall-clock numbers over real sockets measure the machine (kernel, loop
implementation, scheduler jitter) at least as much as our code, so
nothing here is failed on a timing: the TCP path must complete the same
workload as the in-process simulator, and the loopback write latency is
timed by pytest-benchmark.  The gated over-the-socket numbers are the
end-to-end benchmark's TCP workloads (``BENCHMARK.json``).
"""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.net.client import NetRuntime
from repro.net.server import NetServerHost
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

pytestmark = pytest.mark.net

OPS_PER_CLIENT = 40
NUM_CLIENTS = 3


def _open_loopback(num_clients: int):
    runtime = NetRuntime()
    host = NetServerHost(num_clients)
    runtime.run_coroutine(host.start())
    system = open_system(
        SystemConfig(
            num_clients,
            transport="tcp",
            endpoints=(host.endpoint,),
            default_timeout=30.0,
        ),
        backend="ustor",
        runtime=runtime,
    )
    system.hosts.append(host)
    system.owns_runtime = True
    return system


def _drive(system, num_clients: int, seed: int) -> None:
    """Run the standard workload to completion."""
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(
            ops_per_client=OPS_PER_CLIENT,
            read_fraction=0.5,
            mean_think_time=0.0,
        ),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    assert driver.run_to_completion(timeout=120.0)


def test_loopback_workload_completes_like_sim(bench_seed):
    total_ops = NUM_CLIENTS * OPS_PER_CLIENT

    sim_system = open_system(
        SystemConfig(num_clients=NUM_CLIENTS, seed=bench_seed),
        backend="ustor",
    )
    _drive(sim_system, NUM_CLIENTS, bench_seed)
    assert len(sim_system.history()) == total_ops

    tcp_system = _open_loopback(NUM_CLIENTS)
    with tcp_system:
        _drive(tcp_system, NUM_CLIENTS, bench_seed)
        assert len(tcp_system.history()) == total_ops
        assert not any(c.failed for c in tcp_system.clients)


def test_loopback_write_latency(benchmark):
    # Single-client, serial writes: each one is a full SUBMIT/REPLY (+
    # COMMIT) round trip over the socket, so seconds/op is the loopback
    # end-to-end latency floor.
    system = _open_loopback(1)
    with system:
        session = system.session(0)
        session.write_sync(b"warmup")
        benchmark.pedantic(session.write_sync, args=(b"x" * 64,), rounds=50)
