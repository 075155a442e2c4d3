"""E6 — linearizability with a correct server (Definition 5, condition 1).

Randomized executions across seeds, populations, latency models and
read/write mixes; every recorded history must pass the (independently
validated) linearizability checker, plus causality and integrity.
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.api import SystemConfig, open_system
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.experiments.base import ExperimentResult
from repro.sim.network import ExponentialLatency, FixedLatency, UniformLatency
from repro.workloads.generator import WorkloadConfig, run_closed_loop


def run(quick: bool = False) -> ExperimentResult:
    seeds = range(6) if quick else range(20)
    rows = []
    all_lin = all_causal = all_done = 0
    total = 0
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4, 6])
        latency = rng.choice(
            [FixedLatency(1.0), UniformLatency(0.2, 3.0), ExponentialLatency(1.0, cap=10.0)]
        )
        read_fraction = rng.choice([0.2, 0.5, 0.8])
        system = open_system(
            SystemConfig(num_clients=n, seed=seed, latency=latency), backend="ustor"
        )
        driver = run_closed_loop(
            system, WorkloadConfig(ops_per_client=12, read_fraction=read_fraction), rng
        )
        done = driver.stats.all_done()
        history = system.history()
        lin = check_linearizability(history).ok
        causal = check_causal_consistency(history).ok
        total += 1
        all_lin += lin
        all_causal += causal
        all_done += done
        rows.append([seed, n, type(latency).__name__, read_fraction, done, lin, causal])
    table = format_table(
        ["seed", "n", "latency", "read frac", "wait-free", "linearizable", "causal"],
        rows,
        title="Randomized correct-server executions",
    )
    findings = {
        "runs": total,
        "linearizable": f"{all_lin}/{total}",
        "causally consistent": f"{all_causal}/{total}",
        "wait-free (all ops completed)": f"{all_done}/{total}",
        "claim holds": all_lin == all_causal == all_done == total,
    }
    return ExperimentResult(
        experiment_id="E6",
        title="Linearizability and wait-freedom with a correct server",
        paper_claim=(
            "If S is correct, the history is linearizable w.r.t. the register "
            "functionality and wait-free (Definition 5, conditions 1-2)."
        ),
        table=table,
        findings=findings,
    )
