"""E17 — end-to-end throughput: batching across clients, batch sizes, backends.

The paper's protocol is one round per operation, so simulated *latency*
was settled by E3; what limits a production deployment of the simulator
is **machinery per operation** — scheduler events per message hop, a
server wakeup per SUBMIT, a WAL append per record, and (for audited
workloads) a full-history consistency re-check per audit.  The
throughput pipeline (``SystemConfig(batching=...)`` + streaming
incremental audits) amortizes all four; this experiment measures what
that buys end to end.

Sweep: clients × batch size × backend (``ustor``, ``faust``,
``cluster``).  Each cell runs the same seeded session-pipelined workload
and reports wall-clock operations/second, scheduler events per
operation, messages coalesced onto transport bursts, and server group
commits.  A second table audits the workload periodically — offline
full-history re-checks for the unbatched pipeline vs streaming
incremental checkers for the batched one — the configuration the
benchmark suite gates at ≥2x.

Wall-clock ratios vary with the host; the *event* and *append* counts
are deterministic, and those are what the findings assert.
"""

from __future__ import annotations

import random
import time

from repro.analysis.tables import format_table
from repro.api import BatchingPolicy, SystemConfig, open_system
from repro.consistency import check_causal_consistency, check_linearizability
from repro.experiments.base import ExperimentResult
from repro.sim.network import FixedLatency
from repro.workloads.generator import unique_value


def _run_cell(
    backend: str,
    num_clients: int,
    batch: int | None,
    ops_per_client: int,
    seed: int,
    audit_every: float | None = None,
    offline_audit_rounds: int | None = None,
) -> dict:
    """One sweep cell: a pipelined session workload, batched or not.

    ``audit_every`` attaches the streaming incremental auditor on a
    virtual-time cadence; ``offline_audit_rounds`` instead re-checks the
    full history offline every that many submission rounds (the
    pre-pipeline way).  The two are mutually exclusive.
    """
    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        latency=FixedLatency(1.0),
        batching=None if batch is None else BatchingPolicy(max_batch=batch),
        shards=2 if backend == "cluster" else 1,
        faust=_quiet_faust(),
    )
    system = open_system(config, backend=backend)
    auditor = system.attach_audit(every=audit_every) if audit_every else None
    rng = random.Random(seed)
    started = time.perf_counter()
    sessions = system.sessions()
    offline_audits = 0
    for round_index in range(ops_per_client):
        for client, session in enumerate(sessions):
            if round_index % 2 == 0:
                session.write(unique_value(client, round_index, 24))
            else:
                session.read(rng.randrange(num_clients))
        if offline_audit_rounds and round_index % offline_audit_rounds == (
            offline_audit_rounds - 1
        ):
            # The pre-pipeline way: settle, then re-check everything.
            for session in sessions:
                session.barrier(timeout=50_000)
            for history in _histories(system):
                check_linearizability(history)
                check_causal_consistency(history)
            offline_audits += 1
    for session in sessions:
        session.barrier(timeout=50_000)
    if auditor is not None:
        auditor.final()
    elapsed = time.perf_counter() - started

    total_ops = num_clients * ops_per_client
    raws = system.shards if backend == "cluster" else [system.raw]
    verdicts_ok = all(
        check_linearizability(history).ok for history in _histories(system)
    )
    return {
        "ops": total_ops,
        "seconds": elapsed,
        "ops_per_sec": total_ops / elapsed if elapsed > 0 else float("inf"),
        "events": system.scheduler.events_processed,
        "events_per_op": system.scheduler.events_processed / total_ops,
        "coalesced": sum(raw.network.messages_coalesced for raw in raws),
        "group_commits": sum(
            getattr(raw.server, "group_commits", 0) for raw in raws
        ),
        "audits": offline_audits if offline_audit_rounds else (
            len(auditor.audits) if auditor else 0
        ),
        "consistent": verdicts_ok,
    }


def _histories(system):
    shards = getattr(system, "shards", None)
    if shards is not None:
        return list(system.shard_histories().values())
    return [system.history()]


def _quiet_faust():
    from repro.api import FaustParams

    # Background traffic off: every event in the count is workload-driven,
    # so events/op compares cleanly across backends and batch sizes.
    return FaustParams(enable_dummy_reads=False, enable_probes=False)


def run(quick: bool = False) -> ExperimentResult:
    backends = ("ustor", "cluster") if quick else ("ustor", "faust", "cluster")
    client_counts = (4,) if quick else (4, 8)
    batches = (None, 8) if quick else (None, 4, 16)
    ops_per_client = 24 if quick else 48

    rows = []
    events_saved = {}
    throughput_ratio = {}
    coalesced_per_cell = []
    all_consistent = True
    for backend in backends:
        for clients in client_counts:
            baseline_events = None
            baseline_seconds = None
            for batch in batches:
                cell = _run_cell(
                    backend, clients, batch, ops_per_client, seed=17 + clients
                )
                all_consistent = all_consistent and cell["consistent"]
                if batch is None:
                    baseline_events = cell["events"]
                    baseline_seconds = cell["seconds"]
                else:
                    coalesced_per_cell.append(cell["coalesced"] > 0)
                    key = (backend, clients, batch)
                    events_saved[key] = 1 - cell["events"] / baseline_events
                    throughput_ratio[key] = baseline_seconds / cell["seconds"]
                rows.append(
                    [
                        backend,
                        clients,
                        "-" if batch is None else batch,
                        f"{cell['ops_per_sec']:,.0f}",
                        f"{cell['events_per_op']:.1f}",
                        cell["coalesced"],
                        cell["group_commits"],
                    ]
                )

    # -- the audited pipeline: offline re-checks vs incremental ---------- #
    audit_rows = []
    audited_ratio = {}
    for backend in ("ustor",) if quick else ("ustor", "faust"):
        clients = client_counts[-1]
        audit_ops = ops_per_client * 2
        reference = _run_cell(
            backend, clients, None, audit_ops, seed=29,
            offline_audit_rounds=4,
        )
        pipeline = _run_cell(
            backend, clients, 8, audit_ops, seed=29, audit_every=25.0
        )
        audited_ratio[backend] = reference["seconds"] / pipeline["seconds"]
        for label, cell in (("offline re-check", reference),
                            ("incremental", pipeline)):
            audit_rows.append(
                [
                    backend,
                    label,
                    cell["audits"],
                    f"{cell['ops_per_sec']:,.0f}",
                    f"{cell['events_per_op']:.1f}",
                ]
            )

    table = format_table(
        ["backend", "clients", "batch", "ops/sec (wall)", "events/op",
         "msgs coalesced", "group commits"],
        rows,
        title="End-to-end throughput vs clients x batch size x backend",
    ) + "\n\n" + format_table(
        ["backend", "audit mode", "audits", "ops/sec (wall)", "events/op"],
        audit_rows,
        title="Audited workloads: full-history re-checks vs streaming audits",
    )

    findings = {
        "batched runs fire fewer scheduler events in every cell": all(
            saving > 0 for saving in events_saved.values()
        ),
        "largest event reduction across the sweep": max(events_saved.values()),
        "transport coalescing engaged in every batched cell": (
            bool(coalesced_per_cell) and all(coalesced_per_cell)
        ),
        "every cell's history stayed linearizable (honest servers)": (
            all_consistent
        ),
        "batched/unbatched wall-clock ratio (pipelined, informational)": max(
            throughput_ratio.values()
        ),
        "audited-pipeline speedup (informational)": max(audited_ratio.values()),
    }
    return ExperimentResult(
        experiment_id="E17",
        title="End-to-end throughput: batching, group commit, streaming audits",
        paper_claim=(
            "Beyond the paper: the protocol's per-operation round is cheap, "
            "but a production store lives or dies by how much machinery each "
            "operation drags through the stack.  Batching same-destination "
            "transport bursts, group-committing server wakeups and auditing "
            "incrementally removes the per-operation constants without "
            "changing a single protocol byte — histories, digests and "
            "checker verdicts are identical to the unbatched run."
        ),
        table=table,
        findings=findings,
    )
