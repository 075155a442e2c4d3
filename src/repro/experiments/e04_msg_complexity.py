"""E4 — "communication overhead of O(n) bits per request".

Sweeps the client population and measures wire bytes per operation on the
USTOR critical path (SUBMIT + REPLY) and in total (including COMMIT).
The fitted growth must be linear in n: timestamp vectors and digest
vectors have n entries each, and the pending-operation list is bounded by
the concurrency level, not by n.
"""

from __future__ import annotations

import random

from repro.analysis.stats import bytes_per_operation, linear_fit
from repro.analysis.tables import format_table
from repro.api import SystemConfig, open_system
from repro.experiments.base import ExperimentResult
from repro.workloads.generator import WorkloadConfig, run_closed_loop


def run(quick: bool = False) -> ExperimentResult:
    populations = (2, 4, 8, 16) if quick else (2, 4, 8, 16, 32, 64)
    ops_per_client = 4 if quick else 6
    rows = []
    xs, ys = [], []
    for n in populations:
        system = open_system(SystemConfig(num_clients=n, seed=4), backend="ustor")
        driver = run_closed_loop(
            system,
            WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.5, value_size=64),
            random.Random(4),
        )
        assert driver.stats.all_done()
        operations = driver.stats.total_completed()
        critical = bytes_per_operation(system.trace, operations, ["SUBMIT", "REPLY"])
        total = bytes_per_operation(
            system.trace, operations, ["SUBMIT", "REPLY", "COMMIT"]
        )
        rows.append([n, round(critical, 1), round(total, 1), round(total / n, 1)])
        xs.append(float(n))
        ys.append(total)

    fit = linear_fit(xs, ys)
    table = format_table(
        ["clients n", "bytes/op (SUBMIT+REPLY)", "bytes/op (total)", "total / n"],
        rows,
        title="Per-operation communication vs. population size "
        f"(linear fit: {fit.slope:.1f}*n + {fit.intercept:.1f}, R^2={fit.r_squared:.4f})",
    )
    findings = {
        "growth is linear (R^2 of linear fit)": fit.r_squared,
        "bytes per client per op (slope)": fit.slope,
        "doubling n roughly doubles the n-dependent part": ys[-1]
        < 2.6 * ys[-2],
    }
    return ExperimentResult(
        experiment_id="E4",
        title="O(n) communication overhead per request",
        paper_claim=(
            "USTOR has a communication overhead of O(n) bits per request, "
            "where n is the number of clients (Sections 1, 5)."
        ),
        table=table,
        findings=findings,
    )
