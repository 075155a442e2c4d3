"""E10 — COMMIT messages as garbage collection (Section 5's remark).

The paper notes the COMMIT message "is simply an optimization to expedite
garbage collection at S; this message can be eliminated by piggybacking
its contents on the SUBMIT message of the next operation".  This
experiment quantifies the trade-off: client->server messages drop by
half, while the server's pending-operation list L retains one entry per
client (the never-committed last operation) instead of staying near the
instantaneous concurrency level.
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.api import SystemConfig, open_system
from repro.experiments.base import ExperimentResult
from repro.workloads.generator import WorkloadConfig, run_closed_loop


def _run(n: int, ops: int, seed: int, piggyback: bool):
    system = open_system(
        SystemConfig(num_clients=n, seed=seed, commit_piggyback=piggyback),
        backend="ustor",
    )
    driver = run_closed_loop(
        system,
        WorkloadConfig(ops_per_client=ops, read_fraction=0.5, mean_think_time=0.5),
        random.Random(seed),
    )
    assert driver.stats.all_done()
    system.run(until=system.now + 20)
    return system


def run(quick: bool = False) -> ExperimentResult:
    n = 4
    ops = 10 if quick else 25
    rows = []
    stats = {}
    for piggyback in (False, True):
        system = _run(n, ops, seed=10, piggyback=piggyback)
        label = "piggybacked" if piggyback else "eager COMMIT"
        client_msgs = system.trace.message_count("SUBMIT") + system.trace.message_count(
            "COMMIT"
        )
        stats[piggyback] = (
            system.server.max_pending_len,
            len(system.server.state.pending),
            client_msgs,
        )
        rows.append(
            [
                label,
                system.server.max_pending_len,
                len(system.server.state.pending),
                system.trace.message_count("SUBMIT"),
                system.trace.message_count("COMMIT"),
            ]
        )
    table = format_table(
        ["mode", "max |L|", "final |L|", "SUBMITs", "COMMITs"],
        rows,
        title=f"Server pending-list pressure, {n} clients x {ops} ops",
    )
    findings = {
        "eager mode drains L completely at quiescence": stats[False][1] == 0,
        "eager mode bounds max |L| by the concurrency level": stats[False][0] <= n + 2,
        # Each client's final COMMIT is deferred forever; a *later* client's
        # piggybacked commit may still prune earlier clients' trailing
        # tuples, so the residue is between 1 and n entries.
        "piggyback mode leaves residual entries in L": 1 <= stats[True][1] <= n,
        "client->server messages saved by piggybacking": stats[False][2]
        - stats[True][2],
    }
    return ExperimentResult(
        experiment_id="E10",
        title="Garbage collection: eager COMMIT vs. piggybacking",
        paper_claim=(
            "COMMIT expedites garbage collection at the server and can be "
            "piggybacked on the next SUBMIT (Section 5) — trading one message "
            "per operation for residual pending-list entries."
        ),
        table=table,
        findings=findings,
    )
