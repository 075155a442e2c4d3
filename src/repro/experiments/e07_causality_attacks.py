"""E7 — causality under every Byzantine attack (Definition 5, condition 3).

Runs the full attack matrix and checks the recorded histories for causal
consistency and (via protocol-derived views) weak fork-linearizability.
A few attacks halt the clients immediately (detection) — the history up
to the halt must still be causal.
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.api import SystemConfig, open_system
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.experiments.base import ExperimentResult
from repro.ustor.byzantine import (
    CrashingServer,
    Fig3Server,
    ForgingServer,
    ReplayServer,
    SplitBrainServer,
    TamperingServer,
    UnresponsiveServer,
)
from repro.workloads.generator import WorkloadConfig, run_closed_loop

ATTACKS = {
    "correct (control)": lambda n, name: __import__(
        "repro.ustor.server", fromlist=["UstorServer"]
    ).UstorServer(n, name=name),
    "tampering": lambda n, name: TamperingServer(n, target_register=0, name=name),
    "forged version": lambda n, name: ForgingServer(n, name=name),
    "replay": lambda n, name: ReplayServer(n, freeze_after_submits=4, name=name),
    "crash": lambda n, name: CrashingServer(n, crash_after_submits=6, name=name),
    "unresponsive to C1": lambda n, name: UnresponsiveServer(n, victims={0}, name=name),
    "split brain": lambda n, name: SplitBrainServer(
        n, groups=[{0, 1}, {2, 3}], fork_time=5.0, name=name
    ),
    "figure-3 hiding": lambda n, name: Fig3Server(n, writer=0, victim=1, name=name),
}


def run(quick: bool = False) -> ExperimentResult:
    seeds = (1,) if quick else (1, 2, 3)
    n = 4
    rows = []
    causal_everywhere = True
    for attack_name, factory in ATTACKS.items():
        for seed in seeds:
            system = open_system(
                SystemConfig(num_clients=n, seed=seed, server_factory=factory),
                backend="ustor",
            )
            driver = run_closed_loop(
                system,
                WorkloadConfig(ops_per_client=8, read_fraction=0.5, mean_think_time=1.0),
                random.Random(seed),
                until=2_000,
            )
            history = system.history()
            causal = check_causal_consistency(history).ok
            lin = check_linearizability(history).ok
            detected = len(system.notifications.first_failures())
            causal_everywhere &= causal
            rows.append(
                [
                    attack_name,
                    seed,
                    driver.stats.total_completed(),
                    lin,
                    causal,
                    detected,
                ]
            )
    table = format_table(
        ["server", "seed", "ops done", "linearizable", "causal", "USTOR fail_i count"],
        rows,
        title="Attack matrix: consistency of the recorded history",
    )
    findings = {
        "causality holds under every attack": causal_everywhere,
        "attacks run": len(ATTACKS),
    }
    return ExperimentResult(
        experiment_id="E7",
        title="Causality is preserved under all Byzantine attacks",
        paper_claim=(
            "The restriction of every execution to the register functionality "
            "is causally consistent, server faults notwithstanding "
            "(Definition 5, condition 3)."
        ),
        table=table,
        findings=findings,
    )
