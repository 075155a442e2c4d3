"""End-to-end ops/sec: the batched pipeline vs the unbatched one.

The PR-5 throughput pipeline has four layers — session auto-flush
batching, transport burst coalescing, server group commit, and streaming
incremental audits — and this suite measures them in two shapes:

* the audited pipeline (>= 2x asserted here): the
  protocol-shaped workload *with periodic consistency audits*, the
  configuration every long-running deployment of the simulator uses.
  The reference pipeline is what the repo did before this PR — per-op
  transport, per-record WAL appends, and a full-history offline
  re-check per audit; the optimized pipeline batches all three and
  audits incrementally in O(delta).  The ratio is dominated by the
  audit-complexity change (O(history) -> O(delta) per audit), which is
  a property of the code, not the machine — it grows with workload
  length, so the floor below is conservative.
* the pipelined workload (structural assertions only): the same
  workload with no audits at all.  Batching cannot make the protocol's
  crypto or encoding cheaper (the bytes are identical by design), so its
  wall-clock ratio measures only the per-event machinery and hovers near
  1; what batching must change is the event, message and WAL counts.

Deterministic structural assertions (scheduler events, WAL appends,
coalesced messages) run on every machine regardless of timing noise.
"""

from __future__ import annotations

import random
import time

from repro.api import BatchingPolicy, FaustParams, SystemConfig, open_system
from repro.consistency import check_causal_consistency, check_linearizability
from repro.sim.network import FixedLatency
from repro.workloads.generator import unique_value

#: Floor on the reference/optimized wall-clock of the audited
#: end-to-end pipeline.
REQUIRED_THROUGHPUT_SPEEDUP = 2.0


def _open(num_clients: int, seed: int, batch: int | None, storage: str = "log"):
    return open_system(
        SystemConfig(
            num_clients=num_clients,
            seed=seed,
            latency=FixedLatency(1.0),
            storage=storage,
            batching=None if batch is None else BatchingPolicy(max_batch=batch),
            faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
        ),
        backend="ustor",
    )


def _submit_round(sessions, round_index: int, rng) -> None:
    """One protocol-shaped round: every client writes (even rounds) or
    reads a random register (odd rounds).  The ONE definition of the
    workload shape — the reference and optimized pipelines must measure
    the same thing."""
    for client, session in enumerate(sessions):
        if round_index % 2 == 0:
            session.write(unique_value(client, round_index, 24))
        else:
            session.read(rng.randrange(len(sessions)))


def _pipelined_workload(system, ops_per_client: int, seed: int) -> int:
    """Submit the protocol-shaped workload through pipelined sessions."""
    rng = random.Random(seed)
    sessions = system.sessions()
    for round_index in range(ops_per_client):
        _submit_round(sessions, round_index, rng)
    for session in sessions:
        session.barrier(timeout=200_000)
    return ops_per_client * len(sessions)


def _run_reference(num_clients: int, ops_per_client: int, seed: int,
                   audit_every_rounds: int | None) -> tuple[float, int]:
    """The pre-PR pipeline: unbatched, offline full-history audits."""
    system = _open(num_clients, seed, batch=None)
    rng = random.Random(seed)
    sessions = system.sessions()
    started = time.perf_counter()
    for round_index in range(ops_per_client):
        _submit_round(sessions, round_index, rng)
        if audit_every_rounds and round_index % audit_every_rounds == (
            audit_every_rounds - 1
        ):
            for session in sessions:
                session.barrier(timeout=200_000)
            history = system.history()
            assert check_linearizability(history).ok
            assert check_causal_consistency(history).ok
    for session in sessions:
        session.barrier(timeout=200_000)
    elapsed = time.perf_counter() - started
    return elapsed, system.scheduler.events_processed


def _run_optimized(num_clients: int, ops_per_client: int, seed: int,
                   audit_every: float | None) -> tuple[float, int, object]:
    """The PR pipeline: batched transport + group commit + O(delta) audits."""
    system = _open(num_clients, seed, batch=8)
    auditor = system.attach_audit(every=audit_every) if audit_every else None
    started = time.perf_counter()
    _pipelined_workload(system, ops_per_client, seed)
    if auditor is not None:
        record = auditor.final()
        assert record.ok
    elapsed = time.perf_counter() - started
    return elapsed, system.scheduler.events_processed, system


# --------------------------------------------------------------------- #
# The floored end-to-end ratio (audited protocol-shaped workload)
# --------------------------------------------------------------------- #


def test_e2e_throughput_audited_speedup(bench_seed):
    num_clients, ops_per_client = 4, 120
    # Reference audits at the same *frequency in operations* the
    # incremental pipeline uses in virtual time (every ~2 rounds = every
    # 8 ops vs audit_every=10 with ~4 ops per time unit).
    reference_seconds, reference_events = _run_reference(
        num_clients, ops_per_client, bench_seed, audit_every_rounds=2
    )
    optimized_seconds, optimized_events, system = _run_optimized(
        num_clients, ops_per_client, bench_seed, audit_every=10.0
    )
    speedup = reference_seconds / optimized_seconds
    assert speedup >= REQUIRED_THROUGHPUT_SPEEDUP
    # The optimized pipeline must also be structurally lighter.
    assert optimized_events < reference_events


# --------------------------------------------------------------------- #
# The unaudited pipeline (structural assertions)
# --------------------------------------------------------------------- #


def test_e2e_throughput_pipelined(bench_seed):
    num_clients, ops_per_client = 4, 60

    def run(batch):
        system = _open(num_clients, bench_seed, batch)
        _pipelined_workload(system, ops_per_client, bench_seed)
        return system

    reference = run(None)
    optimized = run(8)
    # The structural claims are deterministic and gate everywhere:
    assert optimized.scheduler.events_processed < reference.scheduler.events_processed
    assert optimized.network.messages_coalesced > 0
    assert optimized.server.group_commits > 0
    # Group commit batches WAL appends: strictly fewer durable writes
    # than logged records.
    engine = optimized.server.engine
    records = engine.group_commit_records + (
        engine.wal_appends - engine.group_commit_batches
    )
    assert engine.wal_appends < records
    # ... and the protocol content is identical: same client versions.
    assert [tuple(c.version.vector) for c in optimized.clients] == [
        tuple(c.version.vector) for c in reference.clients
    ]
    assert [c.version.digests for c in optimized.clients] == [
        c.version.digests for c in reference.clients
    ]


# --------------------------------------------------------------------- #
# Incremental audits are O(delta): the per-audit work tracks the delta,
# not the history length (deterministic counter check).
# --------------------------------------------------------------------- #


def test_incremental_audit_is_o_delta(bench_seed):
    system = _open(4, bench_seed, batch=8)
    auditor = system.attach_audit(every=20.0)
    _pipelined_workload(system, 80, bench_seed)
    auditor.final()
    audits = [a for a in auditor.audits if a.delta_ops > 0]
    assert len(audits) >= 5
    # Every streamed operation is examined exactly once across all
    # audits: the total work equals the stream length (writes counted at
    # invocation + reads at response, once per consistency domain), so
    # per-audit cost is the delta — a full-history re-checker would
    # examine Theta(total) ops at *each* audit instead.
    total_examined = sum(a.delta_ops for a in auditor.audits)
    streamed = max(c.ops_processed for c in auditor.checkers.values())
    assert total_examined == streamed
    late_history_len = sum(a.delta_ops for a in auditor.audits[:-1])
    assert auditor.audits[-1].delta_ops < late_history_len


def test_e17_throughput_experiment():
    """E17's deterministic headline findings hold in quick mode."""
    from repro.experiments import e17_throughput

    result = e17_throughput.run(quick=True)
    assert result.findings[
        "batched runs fire fewer scheduler events in every cell"
    ]
    assert result.findings["transport coalescing engaged in every batched cell"]
    assert result.findings[
        "every cell's history stayed linearizable (honest servers)"
    ]
