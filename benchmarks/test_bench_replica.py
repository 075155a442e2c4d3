"""Replica-layer benchmarks: what rollback resistance costs.

The quorum buys masking and O(1) conviction at an inherently n-fold
price — every SUBMIT/COMMIT broadcast ``n`` ways, every replica
REPLYing, plus a constant attestation per REPLY.  These benchmarks
price that trade concretely:

* **write amplification** — the same seeded workload on a single server
  vs. a 3-replica group with durable counters: the wire-byte ratio must
  sit near n, and the replicated run must not be faster;
* **coordinator micro-cost** — quorum resolution is client-side
  bookkeeping on the latency path of every operation, so its per-REPLY
  cost is timed directly;
* **E18** — the rollback experiment's headline findings re-asserted in
  quick mode, like every other reproduced claim in this suite.
"""

from __future__ import annotations

import random
import time

from repro.api import SystemConfig, open_system
from repro.replica.coordinator import QuorumCoordinator
from repro.ustor.messages import ReplyMessage, SignedVersion
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def _run_workload(seed: int, replicas: int, counter: str | None):
    system = open_system(
        SystemConfig(num_clients=4, seed=seed, replicas=replicas, counter=counter),
        backend="ustor",
    )
    scripts = generate_scripts(
        4,
        WorkloadConfig(ops_per_client=10, read_fraction=0.5, mean_think_time=0.0),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=1_000_000.0)
    assert driver.stats.all_done()
    return system.trace.total_bytes()


def test_replica_write_amplification(bench_seed):
    """3 replicas + counters vs. the bare single server, same workload."""
    # Untimed: the first run in a fresh interpreter pays its warm-up
    # (imports, caches), which would land on the single-server side only.
    _run_workload(bench_seed, replicas=1, counter=None)
    started = time.perf_counter()
    single_bytes = _run_workload(bench_seed, replicas=1, counter=None)
    single_seconds = time.perf_counter() - started

    started = time.perf_counter()
    replicated_bytes = _run_workload(bench_seed, replicas=3, counter="durable")
    replicated_seconds = time.perf_counter() - started

    amplification = replicated_seconds / single_seconds
    # The wire cost is structural — n SUBMIT copies, n REPLYs, one
    # attestation each — so the byte ratio must sit near n, and the
    # wall-clock amplification should not be wildly super-linear.
    assert 2.0 <= replicated_bytes / single_bytes <= 4.5
    assert amplification >= 1.0


def test_quorum_resolution_per_reply_cost(benchmark):
    """Absorbing one REPLY into a 3-replica round, steady state."""
    replicas = ("S/r0", "S/r1", "S/r2")
    reply = ReplyMessage(
        commit_index=0,
        last_version=None,
        pending=(),
        proofs=(None,),
    )

    base = SignedVersion.zero(1)

    def resolve_rounds():
        group = QuorumCoordinator(replicas)
        for index in range(200):
            group.begin_round(False, b"op-%d" % index, base)
            for name in replicas:
                group.absorb(name, reply)
        return group.rounds_resolved

    resolved = benchmark(resolve_rounds)
    assert resolved == 200


def test_e18_replica_rollback_experiment():
    """E18's headline findings, quick mode (see EXPERIMENTS.md)."""
    from repro.experiments import e18_replica_rollback

    result = e18_replica_rollback.run(quick=True)
    assert result.findings["single-server rollback is detected but halts the workload"]
    assert result.findings["an honest majority masks every deviant reply"]
    assert result.findings["a durable counter convicts the rolled-back replica"]
    assert result.findings["the counter catch is O(1) operations"]
    assert result.findings["a durable counter never accuses an honest recovery"]
    assert result.findings["wire traffic scales with the replica count"]
