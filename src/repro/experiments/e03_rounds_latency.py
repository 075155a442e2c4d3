"""E3 — "a single round of message exchange ... for every operation".

Measures (a) message rounds on the operation critical path and (b) the
client-perceived latency under write contention, for USTOR and for the
lock-step fork-linearizable baseline.  With a one-way link latency of 1
time unit, USTOR completes every operation in one round trip (latency 2)
regardless of contention; the lock-step baseline serialises globally, so
latency grows linearly with the number of contending clients.
"""

from __future__ import annotations

from repro.analysis.stats import critical_path_rounds, summarize
from repro.analysis.tables import format_table
from repro.api import SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.experiments.base import ExperimentResult
from repro.sim.network import FixedLatency


def _contended_run(system, num_ops_each: int):
    """Every client writes num_ops_each values back-to-back; returns
    per-operation latencies in virtual time."""
    latencies = []

    def issue(client, remaining):
        start = system.now

        def finished(_outcome):
            latencies.append(system.now - start)
            if remaining > 1:
                issue(client, remaining - 1)

        client.write(b"v|%d|%d" % (client.client_id, remaining), finished)

    for client in system.clients:
        issue(client, num_ops_each)
    system.run_until(
        lambda: len(latencies) >= num_ops_each * len(system.clients),
        timeout=1_000_000,
    )
    return latencies


def run(quick: bool = False) -> ExperimentResult:
    populations = (2, 4, 8) if quick else (2, 4, 8, 16)
    ops_each = 3 if quick else 5
    rows = []
    summary: dict = {}
    for n in populations:
        config = SystemConfig(num_clients=n, seed=3, latency=FixedLatency(1.0))
        ustor = open_system(config, backend="ustor")
        ustor_lat = summarize(_contended_run(ustor, ops_each))
        ustor_rounds = critical_path_rounds(ustor.trace, n * ops_each)

        lockstep = build_deployment(config, lockstep_protocol())
        ls_lat = summarize(_contended_run(lockstep, ops_each))

        rows.append(
            [n, f"{ustor_rounds:.2f}", ustor_lat.mean, ustor_lat.maximum, ls_lat.mean, ls_lat.maximum]
        )
        summary[n] = (ustor_lat.mean, ls_lat.mean)

    table = format_table(
        [
            "clients",
            "USTOR rounds/op",
            "USTOR mean lat",
            "USTOR max lat",
            "lock-step mean lat",
            "lock-step max lat",
        ],
        rows,
        title="Write contention: every client issues back-to-back writes "
        "(one-way link latency = 1)",
    )

    smallest, largest = populations[0], populations[-1]
    findings = {
        "USTOR critical path is one round per op": all(
            float(row[1]) == 1.0 for row in rows
        ),
        "USTOR latency flat under contention": summary[largest][0]
        < 1.2 * summary[smallest][0],
        "lock-step latency grows with contention": summary[largest][1]
        > 2.0 * summary[smallest][1],
        "USTOR faster at max contention by": summary[largest][1] / summary[largest][0],
    }
    return ExperimentResult(
        experiment_id="E3",
        title="One message round per operation; no blocking under contention",
        paper_claim=(
            "USTOR requires a single round of message exchange between a "
            "client and the server for every operation (Sections 1, 5); "
            "prior fork-linearizable protocols block concurrent operations."
        ),
        table=table,
        findings=findings,
    )
