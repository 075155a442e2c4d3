"""E5 — wait-freedom vs. the fork-linearizability impossibility.

The same workload with the same injected client crash runs against USTOR
and against the lock-step fork-linearizable baseline.  USTOR completes
100% of the surviving clients' operations; the lock-step design wedges
the moment a client crashes between REPLY and COMMIT — the concrete face
of "no fork-linearizable storage protocol can be wait-free" (Section 1,
citing [5]).
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.api import SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.experiments.base import ExperimentResult
from repro.sim.faults import Fault
from repro.sim.network import FixedLatency
from repro.workloads.generator import WorkloadConfig, generate_scripts, run_closed_loop


def _run_with_crash(system, num_clients: int, ops_per_client: int, seed: int):
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.4, mean_think_time=1.0),
        random.Random(seed),
    )
    # Deterministic mid-operation crash: C1 submits at t=0 (its script's
    # first think time is zeroed) and crashes at t=1.5, after its SUBMIT
    # is on the wire but before any REPLY (one-way latency is 1.0) — so it
    # can never acknowledge/commit its first operation.
    first = scripts[0][0]
    scripts[0][0] = type(first)(
        kind=first.kind, register=first.register, value=first.value, think_time=0.0
    )
    system.faults.add(Fault("crash-forever", 0, 1.5))
    driver = run_closed_loop(system, scripts, until=3_000)
    survivors = range(1, num_clients)
    completed = sum(driver.stats.completed[c] for c in survivors)
    planned = sum(driver.stats.planned[c] for c in survivors)
    return completed, planned


def run(quick: bool = False) -> ExperimentResult:
    seeds = (1, 2) if quick else (1, 2, 3, 4, 5)
    num_clients, ops_per_client = 4, 8
    rows = []
    ustor_fracs, lockstep_fracs = [], []
    for seed in seeds:
        config = SystemConfig(
            num_clients=num_clients, seed=seed, latency=FixedLatency(1.0)
        )
        ustor = open_system(config, backend="ustor")
        done_u, planned_u = _run_with_crash(ustor, num_clients, ops_per_client, seed)
        lockstep = build_deployment(config, lockstep_protocol())
        done_l, planned_l = _run_with_crash(lockstep, num_clients, ops_per_client, seed)
        ustor_fracs.append(done_u / planned_u)
        lockstep_fracs.append(done_l / planned_l)
        rows.append(
            [
                seed,
                f"{done_u}/{planned_u}",
                f"{done_l}/{planned_l}",
                getattr(lockstep.server, "blocked", False),
            ]
        )
    table = format_table(
        ["seed", "USTOR survivor ops", "lock-step survivor ops", "lock-step wedged"],
        rows,
        title="Survivor completion after C1 crashes mid-operation at t=3.5",
    )
    findings = {
        "USTOR survivor completion rate": sum(ustor_fracs) / len(ustor_fracs),
        "lock-step survivor completion rate": sum(lockstep_fracs) / len(lockstep_fracs),
        "USTOR wait-free in every run": all(f == 1.0 for f in ustor_fracs),
        "lock-step blocked in every run": all(f < 1.0 for f in lockstep_fracs),
    }
    return ExperimentResult(
        experiment_id="E5",
        title="Wait-freedom under client crashes",
        paper_claim=(
            "USTOR is wait-free whenever the server is correct — crashes of "
            "other clients never block progress (Definition 5, condition 2); "
            "fork-linearizable protocols cannot be wait-free [5]."
        ),
        table=table,
        findings=findings,
    )
