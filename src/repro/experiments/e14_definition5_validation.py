"""E14 — Definition 5, validated whole: the fail-aware service contract.

The capstone: run complete FAUST deployments — honest, crash-prone, and
Byzantine — and put each finished run through the executable Definition 5
validator (:mod:`repro.faust.validator`), which checks all seven
conditions mechanically.  A reproduction of the paper's *main theorem*
(FAUST implements a fail-aware untrusted storage service) as a table.
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.api import FaustParams, SystemConfig, open_system
from repro.experiments.base import ExperimentResult
from repro.faust.validator import validate_fail_aware_run
from repro.sim.faults import Fault
from repro.ustor.byzantine import SplitBrainServer, TamperingServer
from repro.ustor.server import UstorServer
from repro.workloads.generator import WorkloadConfig, run_closed_loop


def _run_deployment(kind: str, seed: int, settle: float):
    factories = {
        "correct": lambda n, name: UstorServer(n, name=name),
        "correct+crash": lambda n, name: UstorServer(n, name=name),
        "split-brain": lambda n, name: SplitBrainServer(
            n, groups=[{0, 1}, {2}], fork_time=10.0, name=name
        ),
        "tampering": lambda n, name: TamperingServer(n, target_register=0, name=name),
    }
    n = 3
    system = open_system(
        SystemConfig(
            num_clients=n,
            seed=seed,
            server_factory=factories[kind],
            faust=FaustParams(
                dummy_read_period=3.0, probe_check_period=4.0, delta=15.0
            ),
        ),
        backend="faust",
    )
    if kind == "correct+crash":
        system.faults.add(Fault("crash-forever", 2, 8.0))
    run_closed_loop(
        system,
        WorkloadConfig(ops_per_client=6, mean_think_time=1.0),
        random.Random(seed),
        until=80.0,
    )
    cutoff = system.now
    system.run(until=system.now + settle)
    server_correct = kind.startswith("correct")
    report = validate_fail_aware_run(
        system, server_correct=server_correct, completeness_cutoff=cutoff
    )
    return report


def run(quick: bool = False) -> ExperimentResult:
    seeds = (1, 2) if quick else (1, 2, 3, 4)
    settle = 400.0 if quick else 800.0
    kinds = ["correct", "correct+crash", "split-brain", "tampering"]
    rows = []
    all_ok = True
    for kind in kinds:
        for seed in seeds:
            report = _run_deployment(kind, seed, settle)
            ok_count = sum(1 for result in report.conditions.values() if result.ok)
            all_ok &= report.ok
            failures = "; ".join(
                result.condition for result in report.failures()
            ) or "—"
            rows.append([kind, seed, f"{ok_count}/7", report.ok, failures])
    table = format_table(
        ["deployment", "seed", "conditions OK", "Definition 5 holds", "failed conditions"],
        rows,
        title="Definition 5 validation across deployments",
    )
    findings = {
        "runs validated": len(rows),
        "Definition 5 holds in every run": all_ok,
    }
    return ExperimentResult(
        experiment_id="E14",
        title="The fail-aware service contract, validated whole",
        paper_claim=(
            "FAUST implements a fail-aware untrusted storage service "
            "(Definition 5): linearizability and wait-freedom under a "
            "correct server, causality and integrity always, accurate and "
            "complete failure and stability detection."
        ),
        table=table,
        findings=findings,
    )
